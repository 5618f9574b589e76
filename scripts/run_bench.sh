#!/usr/bin/env bash
# Runs the microbenchmark suite at the scalar and auto-detected SIMD
# dispatch levels and merges the two runs into BENCH_microbench.json
# (committed at the repo root), recording per-benchmark scalar_ns, auto_ns
# (medians over BENCH_REPS repetitions, default 1), their coefficients of
# variation and the speedup ratio. scripts/check_bench_regression.py
# consumes the same file as its baseline.
#
# Usage: [BENCH_REPS=5] scripts/run_bench.sh [build-dir] [output-json]
#   build-dir    Release build directory (default: build-bench, configured
#                and built here if missing).
#   output-json  merged result path (default: BENCH_microbench.json).
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${1:-${REPO_ROOT}/build-bench}"
OUT_JSON="${2:-${REPO_ROOT}/BENCH_microbench.json}"
# The slow whole-experiment benchmarks are not dispatch-sensitive enough to
# justify their runtime in the smoke loop; the kernel set below is the one
# the regression gate tracks. BM_SyncEstimate and BM_CrossDomainCapture
# time the sync and vib_capture stages, which own most of a score;
# BM_RenderTrial times one trial's render, which experiment runs realize
# concurrently.
FILTER="${BENCH_FILTER:-BM_FftPow2|BM_FftBluestein|BM_Rfft|BM_StftPower|BM_StftPlanned|BM_Mfcc|BM_Mel|BM_Resample|BM_Correlation2d|BM_SyncEstimate|BM_CrossDomainCapture|BM_FullPipelineScore|BM_StreamingScore|BM_RenderTrial}"

if [[ ! -f "${BUILD_DIR}/CMakeCache.txt" ]]; then
  cmake -S "${REPO_ROOT}" -B "${BUILD_DIR}" -DCMAKE_BUILD_TYPE=Release \
    -DVIBGUARD_BUILD_BENCHMARKS=ON
fi
# Always build: an incremental no-op is cheap, and a stale binary would
# silently benchmark old code.
cmake --build "${BUILD_DIR}" --target bench_microbench -j "$(nproc)"

TMP_DIR="$(mktemp -d)"
trap 'rm -rf "${TMP_DIR}"' EXIT

echo "== bench: VIBGUARD_SIMD=scalar =="
VIBGUARD_SIMD=scalar "${BUILD_DIR}/bench/bench_microbench" \
  --benchmark_filter="${FILTER}" \
  --benchmark_out="${TMP_DIR}/scalar.json" --benchmark_out_format=json \
  --benchmark_repetitions="${BENCH_REPS:-1}" \
  --benchmark_report_aggregates_only=false

echo "== bench: VIBGUARD_SIMD=auto =="
VIBGUARD_SIMD=auto "${BUILD_DIR}/bench/bench_microbench" \
  --benchmark_filter="${FILTER}" \
  --benchmark_out="${TMP_DIR}/auto.json" --benchmark_out_format=json \
  --benchmark_repetitions="${BENCH_REPS:-1}" \
  --benchmark_report_aggregates_only=false

python3 "${REPO_ROOT}/scripts/merge_bench_results.py" \
  "${TMP_DIR}/scalar.json" "${TMP_DIR}/auto.json" "${OUT_JSON}"

echo "wrote ${OUT_JSON}"
