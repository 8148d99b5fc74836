#!/usr/bin/env bash
# CI entry point: configure, build, test, and statically verify every
# shipped script. Pass a sanitizer preset as the first argument to run the
# suite under ASan+UBSan or TSan instead of the plain build:
#
#   scripts/ci.sh            # plain RelWithDebInfo build + ctest + verify
#   scripts/ci.sh address    # ASan + UBSan
#   scripts/ci.sh thread     # TSan, focused on the concurrency suites
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
SANITIZE="${1:-}"
BUILD_DIR="$ROOT/build"
# LIMA_WERROR=ON is opt-in (gcc 12 emits false-positive -Wrestrict warnings
# from inlined std::string code): CI_WERROR=1 scripts/ci.sh
CMAKE_ARGS=(-DLIMA_WERROR="${CI_WERROR:+ON}")
[[ -n "${CI_WERROR:-}" ]] || CMAKE_ARGS=()

case "$SANITIZE" in
  "") ;;
  address|thread)
    BUILD_DIR="$ROOT/build-$SANITIZE"
    CMAKE_ARGS+=(-DLIMA_SANITIZE="$SANITIZE")
    ;;
  *)
    echo "usage: $0 [address|thread]" >&2
    exit 2
    ;;
esac

cmake -B "$BUILD_DIR" -S "$ROOT" "${CMAKE_ARGS[@]}"
cmake --build "$BUILD_DIR" -j "$(nproc)"
if [[ "$SANITIZE" == "thread" ]]; then
  # TSan runs target the multi-threaded paths: parfor workers + merge,
  # shared reuse cache (placeholders, eviction, spilling), multi-level
  # caching, and the loop-dependency serialization fallback. The full suite
  # under TSan is an order of magnitude slower and adds no thread coverage.
  # ctest names come from gtest_discover_tests, i.e. Suite.Case:
  # ParforTest (parfor_test), ParforDependencyTest (parfor_dependency_test),
  # LineageCacheTest (cache_test), MultiLevelTest (multilevel_test),
  # CacheConcurrencyTest (cache_concurrency_test: sharded-cache stress,
  # placeholder liveness, shared-cache sessions), CacheDeterminismTest
  # (cache_determinism_test; its Heavy suite stays out for time).
  # ThreadPoolTest (thread_pool_test: exception-safe pool + ParallelFor) and
  # ServeTest (serve_test: multi-tenant server, shared-cache workers,
  # overload shedding, graceful drain, one cached Program run by several
  # workers at once) ride along — the server IS threads. SessionTest joins
  # for SharedProgramRunsOnTwoSessionsConcurrently, the Program
  # immutability check; the rest of that suite is single-threaded and cheap.
  # RedundancyTest and FusionTest join for the static planner: probe-verdict
  # stamping and cost-planned fusion must stay invisible to 8-worker parfor
  # runs (results, lineage, and cache behavior are compared across worker
  # counts inside those suites).
  # The persistence battery rides along too: PersistRoundtripTest and
  # PersistCorruptionTest are single-threaded but cheap, and WarmStartTest
  # boots real lima_serve daemons (pool workers + snapshot writer + client
  # threads) — exactly the cross-thread traffic TSan should watch. Under
  # ASan the full suite runs, which is what makes the corruption fuzz an
  # ASan gate (ISSUE acceptance: fail closed, never read out of bounds).
  # MatMulTest and Isa/MatMulKernelTest (matrix_test) cover the multiply
  # kernels, which run under RunChunks: MultithreadedMatchesSingle runs
  # every kernel on 1-, 2- and 4-unit budgets.
  TSAN_TESTS='^(ParforTest|ParforDependencyTest|LineageCacheTest|MultiLevelTest|CacheConcurrencyTest|CacheDeterminismTest|ThreadPoolTest|ParallelBudgetTest|ServeTest|SessionTest|RedundancyTest|FusionTest|PersistRoundtripTest|PersistCorruptionTest|WarmStartTest|MatMulTest|Isa/MatMulKernelTest)\.'
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" \
    --tests-regex "$TSAN_TESTS"
else
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"
fi

# The static verifier must accept every shipped script with zero findings.
# This includes the interprocedural shape checks: a script is only clean
# when it has no shape-mismatch errors AND no shape-unknown-degraded
# warnings, so the gate greps for the zero/zero summary line rather than
# relying on the exit code (which only reflects errors).
for script in "$ROOT"/scripts/*.dml; do
  echo "verify (strict shapes): $script"
  report="$("$BUILD_DIR/tools/lima_run" --verify=only "$script" 2>&1 >/dev/null)"
  echo "$report"
  grep -q "0 error(s), 0 warning(s)" <<<"$report" \
    || { echo "shape gate failed: $script" >&2; exit 1; }
done

# Catalog-coverage gate: every verifier run re-lints the operator catalog
# itself (registry-unsound) and its factory coverage (replay-uncovered: a
# reusable opcode lineage replay could not reconstruct), independent of the
# program being verified. A minimal program therefore fails CI on any
# catalog/factory drift even if the shipped scripts never hit the opcode.
echo "catalog coverage gate: lima_run --verify=only"
"$BUILD_DIR/tools/lima_run" --verify=only - <<'EOF'
X = rand(rows=4, cols=4, seed=1);
result = sum(t(X) %*% X);
EOF

# Profiling smoke: --profile=json must emit a single valid JSON document
# whose opcode totals are non-zero and whose cache-event counts reconcile
# with the RuntimeStats counters (see docs/OBSERVABILITY.md).
if command -v python3 >/dev/null 2>&1; then
  echo "profile smoke: lima_run --profile=json"
  "$BUILD_DIR/tools/lima_run" --profile=json - <<'EOF' > "$BUILD_DIR/profile_smoke.json"
X = rand(rows=200, cols=50, seed=17);
S = t(X) %*% X;
S2 = t(X) %*% X;
acc = sum(S) + sum(S2);
result = acc;
EOF
  python3 - "$BUILD_DIR/profile_smoke.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    report = json.load(f)
assert report["schema_version"] == 1, report["schema_version"]
ops = report["ops"]
assert ops, "no opcode rows recorded"
assert sum(op["invocations"] for op in ops) > 0
assert sum(op["total_nanos"] for op in ops) > 0
events, counters = report["cache_events"], report["counters"]
for kind, counter in [("evict", "evictions"), ("spill", "spills"),
                      ("restore", "restores")]:
    assert events[kind]["count"] == counters[counter], (kind, counter)
assert events["hit"]["count"] > 0, "S2 reuse must produce cache hits"
print("profile smoke: OK ({} ops, {} hits)".format(
    len(ops), events["hit"]["count"]))
EOF
else
  echo "profile smoke: python3 not found; skipping" >&2
fi

# Memory-estimate smoke: the static planner's program peak must be an
# upper bound on the runtime's actual peak live bytes for a fully-known
# pipeline (docs/ANALYSIS.md, "Static memory planning"). lima_run prints
# the estimate (with a raw-byte figure) before the run and the measured
# peak after it.
if command -v python3 >/dev/null 2>&1; then
  echo "mem-estimate smoke: lima_run --mem-report"
  for script in "$ROOT"/scripts/*.dml; do
    "$BUILD_DIR/tools/lima_run" --mem-report "$script" \
      > /dev/null 2> "$BUILD_DIR/mem_smoke.txt"
    python3 - "$BUILD_DIR/mem_smoke.txt" "$script" <<'EOF'
import re, sys
text = open(sys.argv[1]).read()
est = re.search(r"program peak: .*\((\d+) bytes", text)
act = re.search(r"actual peak live bytes: (\d+)", text)
assert est and act, text
estimate, actual = int(est.group(1)), int(act.group(1))
assert estimate >= actual, (sys.argv[2], estimate, actual)
print("mem-estimate smoke: OK ({}: estimate {} >= actual {})".format(
    sys.argv[2].rsplit("/", 1)[-1], estimate, actual))
EOF
  done
fi

# Plan-report smoke: every shipped script must emit a valid
# --plan-report=json document (script print() output precedes the JSON on
# stdout, so the parser skips to the first '{' line), and the gridsearch
# pipeline — hyperparameter sweeps recompute shared subexpressions across
# loop iterations — must show the planner doing real work: at least one
# cost-rejected fusion link or cross-block redundancy.
if command -v python3 >/dev/null 2>&1; then
  for script in "$ROOT"/scripts/*.dml; do
    echo "plan-report smoke: $script"
    "$BUILD_DIR/tools/lima_run" --fusion --plan-report=json "$script" \
      > "$BUILD_DIR/plan_smoke.out" 2>/dev/null
    python3 - "$BUILD_DIR/plan_smoke.out" "$script" <<'EOF'
import json, sys
lines = open(sys.argv[1]).read().splitlines(keepends=True)
start = next(i for i, l in enumerate(lines) if l.startswith("{"))
report = json.loads("".join(lines[start:]))
assert report["redundancy_check"] is True, report
assert report["programs"], "no compiled programs in plan report"
totals = {"fusion_rejected": 0, "cross_block_redundant": 0,
          "fusion_applied": 0}
for program in report["programs"]:
    summary = program["summary"]
    assert summary["instructions"] > 0, summary
    for key in totals:
        totals[key] += summary[key]
name = sys.argv[2].rsplit("/", 1)[-1]
if name == "gridsearch.dml":
    assert totals["fusion_rejected"] + totals["cross_block_redundant"] > 0, \
        totals
print("plan-report smoke: OK ({}: {} applied, {} rejected, {} cross-block)"
      .format(name, totals["fusion_applied"], totals["fusion_rejected"],
              totals["cross_block_redundant"]))
EOF
  done
else
  echo "plan-report smoke: python3 not found; skipping" >&2
fi

# Serving smoke: a live lima_serve daemon must answer concurrent clients
# from two tenants over its Unix socket, the shared cache must produce
# cross-tenant hits, and SIGTERM must drain cleanly (docs/SERVING.md).
echo "serve smoke: lima_serve daemon + 8 concurrent clients"
SERVE_SOCK="$BUILD_DIR/ci_serve.sock"
"$BUILD_DIR/tools/lima_serve" --socket="$SERVE_SOCK" --pool=2 --queue=32 \
  2> "$BUILD_DIR/ci_serve.log" &
SERVE_PID=$!
for _ in $(seq 1 50); do
  [[ -S "$SERVE_SOCK" ]] && break
  sleep 0.1
done
cat > "$BUILD_DIR/ci_serve_req.dml" <<'EOF'
X = rand(rows=40, cols=40, seed=7);
print("checksum: " + sum(X %*% t(X)));
EOF
SERVE_CLIENT_PIDS=()
for i in $(seq 1 8); do
  tenant=$([ $((i % 2)) -eq 0 ] && echo even || echo odd)
  "$BUILD_DIR/tools/lima_serve" --socket="$SERVE_SOCK" --call \
    --tenant="$tenant" "$BUILD_DIR/ci_serve_req.dml" \
    > "$BUILD_DIR/ci_serve_out.$i" 2>/dev/null &
  SERVE_CLIENT_PIDS+=($!)
done
for pid in "${SERVE_CLIENT_PIDS[@]}"; do
  wait "$pid" || { echo "serve smoke: client $pid failed" >&2; exit 1; }
done
# All 8 responses must carry the identical checksum line.
[[ "$(cat "$BUILD_DIR"/ci_serve_out.* | sort -u | wc -l)" == 1 ]] \
  || { echo "serve smoke: divergent outputs" >&2; exit 1; }
grep -q "checksum: " "$BUILD_DIR/ci_serve_out.1" \
  || { echo "serve smoke: missing output" >&2; exit 1; }
# A repeated request must be served from the compiled-plan cache with the
# same output as its first, compiled run.
cat > "$BUILD_DIR/ci_serve_plan.dml" <<'EOF'
v = seq(1, 12, 1);
print("plan: " + sum(v ^ 2));
EOF
for i in 1 2; do
  "$BUILD_DIR/tools/lima_serve" --socket="$SERVE_SOCK" --call --tenant=plan \
    "$BUILD_DIR/ci_serve_plan.dml" > "$BUILD_DIR/ci_serve_plan_out.$i" \
    2> "$BUILD_DIR/ci_serve_plan_meta.$i" \
    || { echo "serve smoke: plan request $i failed" >&2; exit 1; }
done
grep -qx "plan_cache=hit" "$BUILD_DIR/ci_serve_plan_meta.2" \
  || { echo "serve smoke: repeated request missed the plan cache" >&2; exit 1; }
cmp -s "$BUILD_DIR/ci_serve_plan_out.1" "$BUILD_DIR/ci_serve_plan_out.2" \
  || { echo "serve smoke: cached plan changed the output" >&2; exit 1; }
# The shared cache must have produced cross-tenant reuse.
"$BUILD_DIR/tools/lima_serve" --socket="$SERVE_SOCK" --call --op=stats \
  2> "$BUILD_DIR/ci_serve_stats.txt" || { echo "serve smoke: stats op failed" >&2; exit 1; }
grep "cross_tenant_hits" "$BUILD_DIR/ci_serve_stats.txt" \
  | grep -qv "=0$" \
  || { echo "serve smoke: no cross-tenant hits recorded" >&2; exit 1; }
plan_hits=$(sed -n 's/^plan_cache_hits=//p' "$BUILD_DIR/ci_serve_stats.txt")
[[ "${plan_hits:-0}" -ge 1 ]] \
  || { echo "serve smoke: stats reports no plan-cache hits" >&2; exit 1; }
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || { echo "serve smoke: daemon exited nonzero" >&2; exit 1; }
grep -q "bye" "$BUILD_DIR/ci_serve.log" \
  || { echo "serve smoke: no clean drain" >&2; exit 1; }
echo "serve smoke: OK"

# Persistence smoke: trace lineage into a store with lima_run, query it in
# situ, then run lima_serve twice on the same store — the second boot must
# warm-start from the first one's snapshot and serve the repeat request
# from the restored cache (docs/PERSISTENCE.md).
echo "persist smoke: store roundtrip + lima_serve warm restart"
PERSIST_DIR="$BUILD_DIR/ci_persist_store"
rm -rf "$PERSIST_DIR"
cat > "$BUILD_DIR/ci_persist_req.dml" <<'EOF'
X = rand(rows=30, cols=30, seed=5);
Y = X %*% t(X);
result = sum(Y);
print("persist checksum: " + sum(Y));
EOF
"$BUILD_DIR/tools/lima_run" --store-dir="$PERSIST_DIR" \
  "$BUILD_DIR/ci_persist_req.dml" > /dev/null 2> "$BUILD_DIR/ci_persist.log"
grep -q "persisted .* lineage records" "$BUILD_DIR/ci_persist.log" \
  || { echo "persist smoke: nothing persisted" >&2; exit 1; }
"$BUILD_DIR/tools/lima_run" --store-dir="$PERSIST_DIR" --lineage-query=list \
  | grep -q "result" \
  || { echo "persist smoke: list query missing the record" >&2; exit 1; }
"$BUILD_DIR/tools/lima_run" --store-dir="$PERSIST_DIR" --lineage-query=stats \
  | grep -q "segments=1" \
  || { echo "persist smoke: stats query failed" >&2; exit 1; }

PERSIST_SOCK="$BUILD_DIR/ci_persist.sock"
for phase in cold warm; do
  "$BUILD_DIR/tools/lima_serve" --socket="$PERSIST_SOCK" --pool=2 \
    --store-dir="$PERSIST_DIR" --snapshot-every=1 \
    2> "$BUILD_DIR/ci_persist_serve.$phase.log" &
  PERSIST_PID=$!
  for _ in $(seq 1 50); do
    [[ -S "$PERSIST_SOCK" ]] && break
    sleep 0.1
  done
  "$BUILD_DIR/tools/lima_serve" --socket="$PERSIST_SOCK" --call --tenant=ci \
    "$BUILD_DIR/ci_persist_req.dml" \
    > /dev/null 2> "$BUILD_DIR/ci_persist_call.$phase.txt" \
    || { echo "persist smoke: $phase request failed" >&2; exit 1; }
  kill -TERM "$PERSIST_PID"
  wait "$PERSIST_PID" \
    || { echo "persist smoke: $phase daemon exited nonzero" >&2; exit 1; }
done
grep -q "warm start from" "$BUILD_DIR/ci_persist_serve.warm.log" \
  || { echo "persist smoke: second boot did not warm-start" >&2; exit 1; }
# The warm daemon's first (and only) request was served from the cache the
# snapshot restored — hits without a single prior request in this process.
grep -Eq "^cache_hits=[1-9]" "$BUILD_DIR/ci_persist_call.warm.txt" \
  || { echo "persist smoke: warm request did not hit" >&2; exit 1; }
echo "persist smoke: OK"

# Contention smoke (plain builds only; sanitizer timings are meaningless):
# at 8 threads the sharded cache must serve the placeholder-heavy serving
# workload at least as fast as the single-mutex configuration (the full
# measurement lives in bench/BENCH_cache_contention.json).
if [[ -z "$SANITIZE" ]] && command -v python3 >/dev/null 2>&1; then
  echo "contention smoke: bench_cache_contention serving @ 8 threads"
  "$BUILD_DIR/bench/bench_cache_contention" \
    --benchmark_filter='CacheContentionServing.*threads:8' \
    --benchmark_min_time=0.1 --benchmark_format=json \
    > "$BUILD_DIR/contention_smoke.json" 2>/dev/null
  python3 - "$BUILD_DIR/contention_smoke.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    report = json.load(f)
rates = {}
for bench in report["benchmarks"]:
    name = bench["name"]
    if "shards:1/" in name:
        rates["single"] = bench["items_per_second"]
    elif "shards:16/" in name:
        rates["sharded"] = bench["items_per_second"]
assert "single" in rates and "sharded" in rates, report["benchmarks"]
assert rates["sharded"] >= rates["single"], rates
print("contention smoke: OK (sharded {:.2e}/s >= single-mutex {:.2e}/s)"
      .format(rates["sharded"], rates["single"]))
EOF
fi

# Parallelism-determinism smoke: the shared budget must change wall-clock
# only. Every shipped script's printed output has to be byte-identical at
# --max-parallelism=1 and at the full hardware budget (kernels chunk by the
# cost model, reductions fold partials in chunk order; docs/CONCURRENCY.md,
# "Parallelism budget").
for script in "$ROOT"/scripts/*.dml; do
  echo "parallelism smoke: $script"
  sum1="$("$BUILD_DIR/tools/lima_run" --max-parallelism=1 --workers=4     "$script" | cksum)"
  sumN="$("$BUILD_DIR/tools/lima_run" --max-parallelism=hardware --workers=4     "$script" | cksum)"
  [[ "$sum1" == "$sumN" ]]     || { echo "output drifted with the budget: $script ($sum1 vs $sumN)" >&2
         exit 1; }
done

echo "ci: OK"
