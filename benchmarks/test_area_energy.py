"""Bench: regenerate the area table and energy comparison."""

import pytest

from conftest import MIXES, record, subset

from repro.experiments import area_energy
from repro.sweep.jobs import default_benchmarks


def test_area_energy(run_once):
    benches = default_benchmarks(subset=subset(6))
    result = run_once(
        lambda: area_energy.run(benchmarks=benches, n_mixes=MIXES)
    )
    record(result)
    rows = dict(result.rows)
    # area: exact calibration targets from the paper
    assert rows["baseline_noc_mm2"]["value"] == pytest.approx(2.27, abs=0.05)
    assert rows["double_bw_noc_mm2"]["value"] == pytest.approx(5.76, abs=0.1)
    assert rows["double_bw_ratio"]["value"] == pytest.approx(2.5, abs=0.1)
    assert rows["dr_total_mm2"]["value"] == pytest.approx(0.172, abs=0.01)
    assert 0.03 < rows["dr_vs_double_bw_extra"]["value"] < 0.07
    # energy shape: RP inflates requests (paper 5.9x) and pays for it;
    # both mechanisms cut system energy per instruction via faster runs,
    # DR more than RP (paper -13.6% vs -7.4%)
    assert rows["rp_request_count"]["ratio"] > 2.0
    assert rows["rp_noc_dynamic_energy"]["ratio"] > \
        rows["dr_noc_dynamic_energy"]["ratio"]
    assert rows["dr_system_energy"]["ratio"] < 1.0
    assert rows["dr_system_energy"]["ratio"] < rows["rp_system_energy"]["ratio"]
