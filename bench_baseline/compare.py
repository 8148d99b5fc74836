#!/usr/bin/env python3
"""Compares two checkouts on the baseline benchmark (README.md here).

    python3 bench_baseline/compare.py --base PARENT_DIR --change CHANGE_DIR

Runs every workload of BENCHMARK.json in ten pairs, each pair on its own
seed, alternating which side runs first, then reports per workload and
end-to-end metric each side's median and quartiles and a verdict:

  gain        the change wins at least 9 of 10 pairs and the medians differ
              by more than the parent's own spread (its interquartile range)
  unresolved  the parent's spread exceeds the metric's bound from
              BENCHMARK.json, and not every change run beats every parent run
  regression  the change's median is worse than the parent's by more than
              the bound
  same        none of the above

A workload on which the change fails more operations than the parent is
flagged: no gain counts there.

Both sides run their own bench_baseline/run.py; a warning is printed when
the two benchmark directories differ, since a claim needs identical
benchmark code on both sides.
"""
import argparse
import filecmp
import json
import os
import statistics
import subprocess
import sys

PAIRS = 10
FIRST_SEED = 1000


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(root, workload, seed, seconds):
    cmd = [sys.executable, os.path.join(root, "bench_baseline", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": "exit %d" % proc.returncode}
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        if line.startswith('{"host"'):
            result["host"] = json.loads(line)["host"]
    return result


def collect(args, spec):
    same = filecmp.dircmp(os.path.join(args.base, "bench_baseline"),
                          os.path.join(args.change, "bench_baseline"))
    if same.diff_files or same.left_only or same.right_only:
        print("warning: the two sides run different benchmark code",
              file=sys.stderr)
    runs = []
    for workload in (w["name"] for w in spec["workloads"]):
        for pair in range(PAIRS):
            seed = FIRST_SEED + pair
            sides = ["base", "change"] if pair % 2 == 0 else ["change", "base"]
            for side in sides:
                root = args.base if side == "base" else args.change
                result = run_once(root, workload, seed, spec["run_seconds"])
                runs.append({"workload": workload, "pair": pair, "side": side,
                             "result": result})
                print("%s pair %d %s: %s" % (workload, pair, side,
                                             result.get("error", "ok")),
                      file=sys.stderr)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(metric, base, change, pairs):
    lower = metric["better"] == "lower"
    q1, base_med, q3 = quartiles(base)
    change_med = statistics.median(change)
    spread = (q3 - q1) / base_med if base_med else 0.0
    better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
    wins = sum(1 for b, c in pairs if better(c, b))
    worse_by = ((change_med - base_med) if lower else (base_med - change_med))
    worse_by = worse_by / base_med if base_med else 0.0
    if wins >= 0.9 * len(pairs) and abs(change_med - base_med) > (q3 - q1):
        return "gain", wins
    all_better = all(better(c, b) for c in change for b in base)
    if spread > metric["bound"] and not all_better:
        return "unresolved", wins
    if worse_by > metric["bound"]:
        return "regression", wins
    return "same", wins


def report(runs, spec):
    failed = [r for r in runs if "error" in r["result"]]
    for r in failed:
        print("run failed: %s pair %d %s (%s)" % (
            r["workload"], r["pair"], r["side"], r["result"]["error"]))
    hosts = {json.dumps(r["result"].get("host"), sort_keys=True)
             for r in runs if "host" in r["result"]}
    for host in sorted(hosts):
        print("host: %s" % host)
    for workload in sorted({r["workload"] for r in runs}):
        ok = [r for r in runs if r["workload"] == workload
              and "error" not in r["result"]]
        failed_ops = {side: sum(r["result"]["failed"] for r in ok
                                if r["side"] == side)
                      for side in ("base", "change")}
        print("\n%s (%d runs; failed operations: parent %d, change %d)" % (
            workload, len(ok), failed_ops["base"], failed_ops["change"]))
        if failed_ops["change"] > failed_ops["base"]:
            print("  the change fails more operations: no gain counts here")
        print("  %-14s %-28s %-28s %-6s %s" % (
            "metric", "parent median [q1, q3]", "change median [q1, q3]",
            "wins", "verdict"))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            by_pair = {}
            for r in ok:
                value = r["result"]["metrics"].get(name, {}).get("value")
                if value is not None:
                    by_pair.setdefault(r["pair"], {})[r["side"]] = value
            pairs = [(p["base"], p["change"]) for p in by_pair.values()
                     if "base" in p and "change" in p]
            if not pairs:
                continue
            base = [b for b, _ in pairs]
            change = [c for _, c in pairs]
            result, wins = verdict(metric, base, change, pairs)
            fmt = lambda q: "%.4g [%.4g, %.4g]" % (q[1], q[0], q[2])
            print("  %-14s %-28s %-28s %2d/%-3d %s" % (
                name, fmt(quartiles(base)), fmt(quartiles(change)), wins,
                len(pairs), result))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="parent checkout")
    parser.add_argument("--change", required=True, help="changed checkout")
    args = parser.parse_args()
    spec = load_spec(args.change)
    report(collect(args, spec), spec)


if __name__ == "__main__":
    main()
