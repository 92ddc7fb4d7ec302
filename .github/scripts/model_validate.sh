#!/usr/bin/env bash
# CI check: the analytical surrogate stays within its accuracy and
# latency budgets on the mesh4x4 smoke grid (8 points x 4 seeds of short
# simulations, both surrogate and simulator sides run from scratch in
# ~25s, well under the 90s wrapper timeout).  `python -m repro model validate` exits nonzero when
# the median relative error on cpu_latency_avg exceeds 25% or a
# prediction takes more than 50ms, so the budget gate is the exit code.
set -euo pipefail

export REPRO_SWEEP_CACHE="${REPRO_SWEEP_CACHE:-/tmp/model-validate-cache}"
rm -rf "$REPRO_SWEEP_CACHE"

python -m repro model validate --grid mesh4x4 --jobs 2 \
  --out /tmp/model-validate.json | tee /tmp/model-validate.txt

# the report carries every budget input it was judged on
grep -q '"passed": true' /tmp/model-validate.json
grep -q "PASS" /tmp/model-validate.txt

# the screening preview runs on the same grid without simulating
python -m repro model screen --grid mesh4x4 --format json \
  > /tmp/model-screen.json
grep -q '"kept"' /tmp/model-screen.json
echo "model validate smoke OK"
