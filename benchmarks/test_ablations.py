"""Bench: ablation studies of Delegated Replies' design choices."""

from conftest import record, subset

from repro.experiments import ablations
from repro.sweep.jobs import default_benchmarks


def test_ablations(run_once):
    benches = default_benchmarks(subset=subset(3))
    result = run_once(lambda: ablations.run(benchmarks=benches))
    record(result)
    rows = dict(result.rows)
    paper_point = rows["delegate_on_block (paper)"]["dr_speedup"]
    # all delegation variants help
    assert paper_point > 1.05
    assert rows["delegate_always"]["dr_speedup"] > 1.0
    # 8 FRQ entries (the paper's pick) captures nearly all the benefit
    assert rows["frq_8_entries"]["dr_speedup"] > \
        rows["frq_2_entries"]["dr_speedup"] * 0.95
    assert rows["frq_16_entries"]["dr_speedup"] < \
        rows["frq_8_entries"]["dr_speedup"] * 1.10
    # stale pointers still run correctly (imprecise tracking is safe)
    assert rows["no_pointer_invalidation"]["dr_speedup"] > 0.9
    # pointer accuracy in the ballpark of the paper's 74.5%
    assert rows["pointer_accuracy"]["dr_speedup"] > 0.5
