"""Seeded synthetic traffic for the bare-fabric differential checks.

This package measures nothing for the record: throughput numbers come
from ``python3 e2e_bench/run.py`` (``--smoke``, ``--workload W``,
``--compare A.json B.json``; baselines in ``e2e_bench/baseline/``).  What
lives here is the traffic those checks replay — the schedule generators,
the :func:`replay` driver and four named scenarios:

* ``mesh8x8`` — 8x8 mesh, light uniform-random traffic (the
  latency-regime operating point the active sets exploit).
* ``mesh8x8_dr`` — memory-node hotspot traffic onto NICs running
  Delegated Replies, exercising the memory-node NIC path.
* ``shared_vnet`` — one physical network with request/reply virtual
  networks at moderate load.
* ``mesh16x16_sat`` — 16x16 mesh far past saturation, the scale the
  vector backend exists for.

``tests/test_perf_equivalence.py`` (sleeping == all-awake) and
``tests/test_vector_kernel.py`` (object == vector) replay them, and
``.github/scripts/ratio_gate.py`` times them for the ratios CI asserts
inside one commit.
"""

from repro.bench.traffic import (
    SCENARIOS,
    BenchResult,
    Lcg,
    Scenario,
    delivered,
    hotspot_schedule,
    replay,
    run_bench,
    uniform_schedule,
)

__all__ = [
    "SCENARIOS",
    "BenchResult",
    "Lcg",
    "Scenario",
    "delivered",
    "hotspot_schedule",
    "replay",
    "run_bench",
    "uniform_schedule",
]
