#!/usr/bin/env bash
# Import budget: the serving entry points must import without scipy.
# A shard is spawned (and respawned after a crash) by importing these
# modules, and scipy.stats alone costs about a second, so scipy is only
# imported at the call sites that need it.  Prints the 15 largest
# cumulative import times and exits 1 if any scipy module was loaded.
# No timing gate: the numbers are for reading, not comparing.
set -euo pipefail
cd "$(dirname "$0")/../.."
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}

log="$(mktemp)"
trap 'rm -f "$log"' EXIT
python -X importtime -c "import repro.serve, repro.api.cli" 2> "$log"

# Rows are "import time: self | cumulative | indented module name".
rows="$(awk -F'|' '/^import time: +[0-9]/ {gsub(/ /, "", $2); sub(/^ +/, "", $3); print $2 "\t" $3}' "$log")"

echo "== 15 largest cumulative imports (us)"
sort -rn <<< "$rows" | awk 'NR <= 15'

scipy_modules="$(awk -F'\t' '$2 ~ /^scipy(\.|$)/ {print $2}' <<< "$rows")"
if [[ -n "$scipy_modules" ]]; then
  echo "import budget: FAILED -- 'import repro.serve, repro.api.cli' loaded scipy:" >&2
  sed 's/^/  /' <<< "$scipy_modules" | awk 'NR <= 20' >&2
  exit 1
fi
echo "import budget: ok"
