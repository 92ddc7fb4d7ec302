"""Bench: regenerate Fig. 15 (DR on top of shared-L1 / CTA optimisations)."""

from conftest import record, subset

from repro.analysis.report import amean
from repro.experiments import fig15_shared_l1
from repro.sweep.jobs import default_benchmarks


def test_fig15_shared_l1(run_once):
    benches = default_benchmarks(subset=subset(5))
    result = run_once(lambda: fig15_shared_l1.run(benchmarks=benches))
    record(result)
    # paper: locality optimisations do not remove clogging; DR still adds
    # a substantial gain on top of DynEB under round-robin scheduling
    assert result.data["dr_on_dyneb_rr"] > 1.08
    dyneb = amean(result.column("dyneb-rr"))
    dyneb_dr = amean(result.column("dyneb+dr-rr"))
    assert dyneb_dr > dyneb
    # DynEB's fallback keeps it from collapsing the way DC-L1 can
    for _, v in result.rows:
        assert v["dyneb-rr"] > v["dc_l1-rr"] * 0.75
