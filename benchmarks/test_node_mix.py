"""Bench: regenerate the Section VII node-mix study."""

from conftest import record, subset

from repro.experiments import node_mix
from repro.sweep.jobs import default_benchmarks


def test_node_mix(run_once):
    benches = default_benchmarks(subset=subset(3))
    result = run_once(lambda: node_mix.run(benchmarks=benches))
    record(result)
    rows = dict(result.rows)
    # paper: fewer memory nodes (more GPU cores per node) means more
    # clogging and a larger DR gain: 1.382 (4 mem) > 1.305 (8) > 1.107 (16)
    assert rows["8cpu/52gpu/4mem"]["dr_speedup"] > \
        rows["8cpu/40gpu/16mem"]["dr_speedup"]
    # DR helps at every mix
    for mix, v in rows.items():
        assert v["dr_speedup"] > 1.0, mix
