#!/usr/bin/env sh
# Measures the inference serving tier: runs bench_serve (closed-loop
# pipelined clients against the in-process InferenceServer) in four modes —
# max_batch=1 (micro-batching off), the configured max_batch, 2-model
# routing (clients alternate the wire "model" field), and inductive
# feature-carrying queries — plus an overload saturation run and a
# JSON-vs-binary transport A/B over the real TCP front end, and captures
# its JSON line:
#
#   {"workload": "serve cora_ml", ..., "single": {"qps": ...},
#    "batched": {"qps": ..., "mean_batch": ...}, "routed": {...},
#    "inductive": {...}, "overload": {...}, "json_tcp": {"qps": ...},
#    "binary_tcp": {"qps": ...}, "speedup": ..., "routing_cost": ...,
#    "degradation_ratio": ..., "binary_vs_json_qps": ...}
#
# One pass is short (~50 ms per mode), so bench_serve runs 5 times and every
# number written is the median over the passes (counts take the lower
# median; a ratio is the median of the per-pass ratios). "passes" holds the
# pass count and "ratio_passes" each gated ratio's per-pass values.
#
# The CI gates assert
# speedup >= 2x, routing_cost >= 0.9 (multi-model routing may cost
# < 10% QPS vs single-model), degradation_ratio >= 0.9, and
# binary_vs_json_qps >= 2.0 (the zero-copy binary frame transport must at
# least double feature-carrying throughput over the text codec).
#
# Usage: bench_serve_json.sh <path-to-bench_serve> [output.json]
# GCON_SERVE_BENCH_QUERIES overrides the per-mode query count (default
# 30000 in the binary).
set -eu

BENCH_BIN="${1:?usage: bench_serve_json.sh <bench_serve> [out.json]}"
OUT="${2:-BENCH_serve.json}"
PASSES=5

: > "${OUT}.passes"
pass=0
while [ "${pass}" -lt "${PASSES}" ]; do
  "${BENCH_BIN}" >> "${OUT}.passes"
  pass=$((pass + 1))
done

python3 - "${OUT}.passes" "${OUT}" <<'PY'
import json
import statistics
import sys

passes = [json.loads(line) for line in open(sys.argv[1]) if line.strip()]
RATIOS = ("speedup", "routing_cost", "degradation_ratio",
          "binary_vs_json_qps", "obs_overhead_qps_ratio")


def median(values):
    if all(isinstance(v, dict) for v in values):
        return {k: median([v[k] for v in values]) for k in values[0]}
    if all(isinstance(v, bool) or not isinstance(v, (int, float))
           for v in values):
        return values[0]
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


out = median(passes)
out["passes"] = len(passes)
out["ratio_passes"] = {k: [p[k] for p in passes] for k in RATIOS if k in out}
with open(sys.argv[2], "w") as f:
    json.dump(out, f)
    f.write("\n")
PY
rm -f "${OUT}.passes"

cat "${OUT}"
echo "wrote ${OUT}"
