#!/usr/bin/env bash
# Scenario library smoke: list the stock library, sweep three scenarios
# over two substrates on a process pool (tiny budgets), and round-trip
# the run store through `repro scenarios report`.  map-misfit-converted
# covers the convert fit, where a cim session fits its GMM at build time.
set -euo pipefail
cd "$(dirname "$0")/../.."
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}

python -m repro scenarios list

STORE="$(mktemp -d)/repro-scenarios"
python -m repro scenarios run room-baseline sensor-dropout-burst \
  map-misfit-converted \
  --tiny --substrates digital,cim --seeds 0 --workers 2 \
  --store "$STORE"
python -m repro scenarios report "$STORE"
echo "scenarios smoke: ok"
