"""Bench: regenerate Fig. 19 (sensitivity analyses)."""

from conftest import record, subset

from repro.experiments import fig19_sensitivity
from repro.sweep.jobs import default_benchmarks


def test_fig19_sensitivity(run_once):
    benches = default_benchmarks(subset=subset(3))
    result = run_once(lambda: fig19_sensitivity.run(benchmarks=benches))
    record(result)
    rows = dict(result.rows)
    # paper: Delegated Replies consistently improves GPU performance
    # across the whole design space
    for point, v in rows.items():
        assert v["dr_speedup"] > 1.0, f"DR should help at {point}"
    # every channel width keeps a solid gain (paper: +13.9% even at 24 B)
    for width in ("8B", "16B", "24B"):
        assert rows[f"channel_width:{width}"]["dr_speedup"] > 1.03
    # L1 size: the gain grows with L1 capacity (paper: 22.9% -> 30.2%)
    assert rows["l1_size:64KB"]["dr_speedup"] >= \
        rows["l1_size:16KB"]["dr_speedup"] * 0.98
    # injection-buffer size does not fix clogging (paper: insensitive)
    buf = [rows[f"injection_buffer:{s}"]["dr_speedup"] for s in ("18f", "36f", "72f")]
    assert max(buf) / min(buf) < 1.4
