#!/usr/bin/env sh
# Runs the linalg slice of bench_micro and writes a machine-readable perf
# artifact (google-benchmark JSON) for the CI perf trajectory:
#   - BM_DenseGemm* carry a FLOPS rate counter (GEMM GFLOP/s = FLOPS / 1e9),
#   - BM_SpMM carries rows_per_s,
#   - BM_ApprPropagate / BM_ApprRound* are tracked by real_time (ms),
#   - BM_DenseGemmSeedNaive is the seed kernel the speedup is measured
#     against, in the same binary with the same build flags,
#   - BM_CsrGemm / BM_DenseGemmEncoder are the encoder's first layer as a
#     CSR and as a dense product (same bits), tracked by real_time,
#   - BM_AdamStep is one encoder Adam step, scalar reference vs the
#     dispatched (AVX2) kernel (same bits), tracked by real_time,
#   - BM_MlpEpoch is cora_ml-shaped encoder training, 20 epochs per
#     iteration, tracked by real_time (ms; / 20 for one epoch).
#
# Each benchmark runs 5 repetitions and only the aggregates are written:
# gates read the entries whose aggregate_name is "median" (keyed by
# run_name), so one noisy repetition cannot fail or pass a gate.
#
# Usage: bench_linalg_json.sh <path-to-bench_micro> [output.json]
# GCON_PERF_SMOKE=1 shortens min-time for a quick CI smoke run.
set -eu

BENCH_BIN="${1:?usage: bench_linalg_json.sh <bench_micro> [out.json]}"
OUT="${2:-BENCH_linalg.json}"

MIN_TIME="0.5"
if [ "${GCON_PERF_SMOKE:-0}" = "1" ]; then
  MIN_TIME="0.05"
fi

"${BENCH_BIN}" \
  --benchmark_filter='BM_DenseGemm|BM_CsrGemm|BM_AdamStep|BM_MlpEpoch|BM_SpMM|BM_ApprPropagate|BM_ApprRound|BM_PropagationCacheHit' \
  --benchmark_min_time="${MIN_TIME}" \
  --benchmark_repetitions=5 \
  --benchmark_report_aggregates_only=true \
  --benchmark_format=json \
  --benchmark_out_format=json \
  --benchmark_out="${OUT}" >/dev/null

echo "wrote ${OUT}"
