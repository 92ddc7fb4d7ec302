#!/usr/bin/env bash
# CI check: a mini-sweep killed mid-run resumes from the on-disk cache.
#
# Starts a 9-job mechanism sweep (3 GPU benchmarks x 3 mechanisms) on two
# workers, interrupts it once a few jobs have landed in the cache, then
# re-runs the same command and asserts the second run reused cached jobs and
# completed everything.  The caller wraps this script in `timeout 90`.
set -euo pipefail

BENCHES="HS,SC,3DCON"
CACHE=/tmp/sweep-cache
MANIFEST=/tmp/sweep-manifest.json
rm -rf "$CACHE" "$MANIFEST"

python -m repro sweep run --jobs 2 --benchmarks "$BENCHES" \
  --cache-dir "$CACHE" &
pid=$!
sleep 12
# SIGTERM, not SIGINT: background jobs of a non-interactive shell ignore
# SIGINT; the sweep CLI maps SIGTERM onto the same graceful interrupt
kill "$pid" 2>/dev/null || true
wait "$pid" || true

echo "--- after interrupt ---"
python -m repro sweep status --benchmarks "$BENCHES" --cache-dir "$CACHE"

echo "--- resume ---"
python -m repro sweep run --jobs 2 --benchmarks "$BENCHES" \
  --cache-dir "$CACHE" --out "$MANIFEST"

python - "$MANIFEST" <<'PY'
import json
import sys

totals = json.load(open(sys.argv[1]))["totals"]
assert totals["failed"] == 0, totals
assert totals["cached"] > 0, f"resume reused no cached jobs: {totals}"
assert totals["ok"] + totals["cached"] == 9, totals
print(f"resume reused {totals['cached']} cached job(s), "
      f"simulated {totals['ok']} fresh")
PY
