"""Bench: regenerate Fig. 16 (DR's gain is topology-insensitive)."""

from conftest import record, subset

from repro.experiments import fig16_topology_dr
from repro.sweep.jobs import default_benchmarks


def test_fig16_topology_dr(run_once):
    benches = default_benchmarks(subset=subset(4))
    result = run_once(lambda: fig16_topology_dr.run(benchmarks=benches))
    record(result)
    rows = dict(result.rows)
    # paper: +21.9% to +28.3% across all four topologies — DR helps every
    # topology because each memory node keeps its single reply link
    for topo, v in rows.items():
        assert v["dr_speedup"] > 1.08, f"DR should help on {topo}"
    speedups = [v["dr_speedup"] for v in rows.values()]
    assert max(speedups) / min(speedups) < 1.5, "gain should be uniform-ish"
