"""Bench: regenerate Fig. 7 (adaptive routing does not beat CDR)."""

from conftest import record, subset

from repro.analysis.report import amean
from repro.experiments import fig07_adaptive
from repro.sweep.jobs import default_benchmarks


def test_fig07_adaptive(run_once):
    benches = default_benchmarks(subset=subset(5))
    result = run_once(lambda: fig07_adaptive.run(benchmarks=benches))
    record(result)
    # paper: CDR is the top performer; adaptive schemes pay overhead with
    # no benefit because every reply path is equally clogged
    for policy in ("dyxy", "footprint", "hare"):
        mean = amean(result.column(policy))
        assert mean < 1.10, f"{policy} should not meaningfully beat CDR"
