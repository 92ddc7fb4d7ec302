"""Bench: regenerate Fig. 6 (asymmetric VC partitioning is ineffective)."""

from conftest import record, subset

from repro.experiments import fig06_avcp
from repro.sweep.jobs import default_benchmarks


def test_fig06_avcp(run_once):
    benches = default_benchmarks(subset=subset(6))
    result = run_once(lambda: fig06_avcp.run(benchmarks=benches))
    record(result)
    # the paper's conclusion: giving replies more VCs cannot raise the
    # clogged links' bandwidth — AVCP vs the symmetric shared net is flat
    for label, values in result.rows:
        assert 0.75 < values["avcp_vs_symmetric"] < 1.25, label
    # BP is write-heavy: the reply-heavy split must not help it
    by_bench = dict(result.rows)
    if "BP" in by_bench:
        assert by_bench["BP"]["1req+3rep"] <= by_bench["BP"]["2req+2rep"] * 1.1
