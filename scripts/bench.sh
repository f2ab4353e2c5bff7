#!/usr/bin/env bash
# Engine perf trajectory: build the engine benches in Release and write the
# machine-readable throughput reports to the repo root, each gated against
# its checked-in pre-PR baseline:
#   bench_micro_engine -> BENCH_engine.json (ci/bench-baseline-engine.json)
#   bench_macro_scale  -> BENCH_scale.json  (ci/bench-baseline-scale.json)
#   bench_fsck         -> BENCH_fsck.json   (ci/bench-baseline-fsck.json)
#   bench_changelog    -> BENCH_changelog.json (ci/bench-baseline-changelog.json)
#   bench_lint         -> BENCH_lint.json   (ci/bench-baseline-lint.json)
#
# Usage: scripts/bench.sh [--smoke] [build-dir]
#   --smoke     seconds-long run sized for CI; full mode is the default and
#               is what PR before/after records should quote.
#   build-dir   defaults to build-bench/ (kept separate from build/ so a
#               sanitizer or Debug tree never pollutes perf numbers).
#
# Every bench runs even when an earlier one fails, so one host-speed miss
# does not hide the others' reports. Exit code is non-zero when any bench's
# shape check fails or a metric drops below the 0.60x regression floor of
# its baseline; the failing benches are listed at the end.
set -euo pipefail

cd "$(dirname "$0")/.."

SMOKE=""
BUILD_DIR="build-bench"
for arg in "$@"; do
  case "${arg}" in
    --smoke) SMOKE="--smoke" ;;
    --*) echo "usage: scripts/bench.sh [--smoke] [build-dir]" >&2; exit 2 ;;
    *) BUILD_DIR="${arg}" ;;
  esac
done

JOBS="$(nproc 2>/dev/null || echo 4)"
echo "=== [bench] configure + build (Release) ==="
cmake -B "${BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "${BUILD_DIR}" -j "${JOBS}" \
    --target bench_micro_engine bench_macro_scale bench_fsck bench_changelog bench_lint

FAILED=()
# run_bench <title> <bench> <report>: run one bench against its baseline.
run_bench() {
  echo "=== [bench] $1 ==="
  "${BUILD_DIR}/bench/$2" \
      --spider-json="BENCH_$3.json" \
      --baseline="ci/bench-baseline-$3.json" \
      ${SMOKE} || FAILED+=("$2")
}

run_bench "engine throughput" bench_micro_engine engine
run_bench "macro-scale sharded engine" bench_macro_scale scale
run_bench "spiderfsck scan throughput" bench_fsck fsck
run_bench "changelog incremental vs scan" bench_changelog changelog
run_bench "spiderlint whole-tree wall time" bench_lint lint

if ((${#FAILED[@]} > 0)); then
  echo "=== [bench] FAILED: ${FAILED[*]} ===" >&2
  exit 1
fi
