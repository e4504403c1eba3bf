#!/usr/bin/env bash
# Benchmark correctness smoke: run each BENCHMARK.json workload briefly.
# perfbench/run.py exits 1 when any sampled output breaks its oracle
# (sweep vs serial execution, streamed track vs reference_track_run,
# served inference vs reference_run), so a non-zero exit fails CI.
# No timing gates: the numbers printed here are not compared to anything.
set -euo pipefail
cd "$(dirname "$0")/../.."

for workload in track-http infer-mix scenario-sweep; do
  echo "== perfbench $workload"
  python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 2 --trace 0
done
echo "perfbench smoke: ok"
