#!/usr/bin/env bash
# Runs clang-tidy (config in .clang-tidy) over the lineage and reuse
# subsystems — the lint surface the verifier work hardened — plus any extra
# paths given as arguments. Requires a compile_commands.json, produced by
# configuring with -DCMAKE_EXPORT_COMPILE_COMMANDS=ON.
#
# Exits 0 with a notice when clang-tidy is not installed so CI environments
# without LLVM tooling skip cleanly instead of failing.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"

if ! command -v clang-tidy >/dev/null 2>&1; then
  echo "run_clang_tidy: clang-tidy not found on PATH; skipping" >&2
  exit 0
fi

BUILD_DIR="${BUILD_DIR:-$ROOT/build}"
if [[ ! -f "$BUILD_DIR/compile_commands.json" ]]; then
  cmake -B "$BUILD_DIR" -S "$ROOT" -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
fi

PATHS=("$@")
if [[ ${#PATHS[@]} -eq 0 ]]; then
  # Whole hardened subsystems — including src/analysis (shape inference,
  # liveness, verifier, parfor dependency analysis, redundancy planner) and
  # src/serve (the lima_serve daemon) — plus the command-line tools and the
  # catalog-refactor surface in src/runtime (the factory and its replay
  # consumer), and the dense multiply kernels.
  PATHS=("$ROOT/src/lineage" "$ROOT/src/reuse" "$ROOT/src/analysis"
         "$ROOT/src/obs" "$ROOT/src/serve" "$ROOT/tools"
         "$ROOT/src/common/parallel.cc"
         "$ROOT/src/matrix/matmul.cc"
         "$ROOT/src/runtime/instruction_factory.cc"
         "$ROOT/src/runtime/reconstruct.cc")
fi

FILES=()
for path in "${PATHS[@]}"; do
  while IFS= read -r f; do FILES+=("$f"); done \
    < <(find "$path" -name '*.cc' | sort)
done

status=0
for f in "${FILES[@]}"; do
  echo "clang-tidy: $f"
  clang-tidy -p "$BUILD_DIR" --quiet "$f" || status=1
done
exit "$status"
