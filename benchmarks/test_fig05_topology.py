"""Bench: regenerate Fig. 5 (topology change vs bandwidth doubling)."""

from conftest import record, subset

from repro.experiments import fig05_topology
from repro.sweep.jobs import default_benchmarks


def test_fig05_topology(run_once):
    benches = default_benchmarks(subset=subset(5))
    result = run_once(lambda: fig05_topology.run(benchmarks=benches))
    record(result)
    rows = dict(result.rows)
    mesh1 = rows["mesh-1x"]
    # paper: every topology keeps blocking high at nominal bandwidth ...
    for topo in ("mesh", "crossbar", "flattened_butterfly", "dragonfly"):
        assert rows[f"{topo}-1x"]["mem_blocking_rate"] > 0.5
    # ... while doubling bandwidth helps every topology substantially
    for topo in ("mesh", "crossbar", "flattened_butterfly", "dragonfly"):
        gain = (
            rows[f"{topo}-2x"]["hm_gpu_speedup"]
            / rows[f"{topo}-1x"]["hm_gpu_speedup"]
        )
        assert gain > 1.08, f"2x bandwidth did not help {topo}"
    # topology alone moves performance far less than 2x bandwidth does
    topo_spread = max(
        rows[f"{t}-1x"]["hm_gpu_speedup"]
        for t in ("crossbar", "flattened_butterfly", "dragonfly")
    )
    assert topo_spread < rows["mesh-2x"]["hm_gpu_speedup"] * 1.1
    assert mesh1["hm_gpu_speedup"] == 1.0
