#!/usr/bin/env bash
# CI gate: the vector (struct-of-arrays) backend must stay bit-identical
# to the object kernel AND meaningfully faster.
#
# Two stages:
#   1. The bit-identity matrix (tests/test_vector_kernel.py): object
#      kernel vs vector counters, histograms and delegation stats on
#      mesh4x4 / mesh8x8 x {baseline, DR} x {light, saturated} plus the
#      randomized-config property case and the full-system runs
#      (baseline, DR, RP and loss-plan chaos) — and, since the object
#      kernel is what vector is held to, the check that its own
#      scheduler skips nothing (tests/test_perf_equivalence.py).
#   2. A saturated 16x16 probe, timed back-to-back in one process on
#      both backends: vector must deliver >= 3x the object kernel's
#      cycles/sec (typical margin is ~7x, so 3x only trips on a real
#      regression, not runner noise).
# Identity failures are deterministic bugs (no retry); the speed stage
# gets one retry to ride out a noisy shared runner.
# The caller wraps this script in `timeout 90`.
set -euo pipefail

python -m pytest tests/test_vector_kernel.py tests/test_perf_equivalence.py -x -q

speed_once() {
  python - <<'EOF'
import sys
from repro.bench.harness import run_bench

CYCLES = 500
vec = run_bench("mesh16x16_sat_vec", cycles=CYCLES, backend="vector")
obj = run_bench("mesh16x16_sat_vec", cycles=CYCLES, backend="object")
ratio = vec.cycles_per_sec / obj.cycles_per_sec
print(f"mesh16x16 saturated probe: object {obj.cycles_per_sec:.0f} cyc/s, "
      f"vector {vec.cycles_per_sec:.0f} cyc/s ({ratio:.2f}x)")
if ratio < 3.0:
    print(f"FAIL: vector/object ratio {ratio:.2f}x < 3x")
    sys.exit(1)
print("vector kernel speed OK")
EOF
}

if speed_once; then
  exit 0
fi
echo "--- ratio under 3x; retrying once (noisy runner guard) ---"
speed_once
