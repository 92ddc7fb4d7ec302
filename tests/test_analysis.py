"""Tests for the area/energy models and report formatting."""

import math

import pytest

from repro.analysis.area import (
    core_pointer_area,
    delegated_replies_overhead,
    frq_area,
    noc_area,
)
from repro.analysis.energy import energy_report
from repro.analysis.report import amean, format_table, geomean, hmean
from repro.config import Topology, baseline_config
from repro.sim.metrics import SimulationResult


class TestAreaCalibration:
    """The model must land on the paper's published absolute numbers."""

    def test_baseline_mesh_area(self):
        assert noc_area(baseline_config()).total == pytest.approx(2.27, abs=0.05)

    def test_double_bandwidth_mesh_area(self):
        cfg = baseline_config()
        cfg.noc.bandwidth_factor = 2.0
        assert noc_area(cfg).total == pytest.approx(5.76, abs=0.1)

    def test_double_bandwidth_ratio_is_2_5x(self):
        base = noc_area(baseline_config()).total
        cfg = baseline_config()
        cfg.noc.bandwidth_factor = 2.0
        assert noc_area(cfg).total / base == pytest.approx(2.5, abs=0.1)

    def test_core_pointer_area(self):
        assert core_pointer_area(baseline_config()) == pytest.approx(0.08, abs=0.005)

    def test_frq_area(self):
        assert frq_area(baseline_config()) == pytest.approx(0.092, abs=0.005)

    def test_dr_total_overhead(self):
        ov = delegated_replies_overhead(baseline_config())
        assert ov["total"] == pytest.approx(0.172, abs=0.01)

    def test_dr_is_5_percent_of_double_bw_extra(self):
        cfg = baseline_config()
        base = noc_area(cfg).total
        cfg2 = baseline_config()
        cfg2.noc.bandwidth_factor = 2.0
        extra = noc_area(cfg2).total - base
        ratio = delegated_replies_overhead(cfg)["total"] / extra
        assert 0.03 < ratio < 0.07  # "only 5% of the area overhead"

    def test_crossbar_quadratic_blowup(self):
        cfg = baseline_config()
        cfg.noc.topology = Topology.CROSSBAR
        assert noc_area(cfg).total > 5 * noc_area(baseline_config()).total

    def test_router_area_monotonic_in_width(self):
        wide = baseline_config()
        wide.noc.channel_width_bytes = 32
        routers = lambda r: r.buffers + r.crossbars + r.allocators
        assert routers(noc_area(wide)) > routers(noc_area(baseline_config()))

    def test_pointer_area_scales_with_llc(self):
        cfg = baseline_config()
        cfg.llc.slice_size_bytes *= 2
        assert core_pointer_area(cfg) == pytest.approx(0.16, abs=0.01)


class TestEnergyModel:
    def _result(self, flits, insts, cycles=1000):
        return SimulationResult(
            cycles=cycles,
            counters={
                "noc.req_flits_routed": flits / 2,
                "noc.rep_flits_routed": flits / 2,
                "gpu.insts": insts,
                "cpu.insts": 0,
            },
        )

    def test_more_flits_more_noc_energy(self):
        cfg = baseline_config()
        lo = energy_report(self._result(1000, 10_000), cfg)
        hi = energy_report(self._result(5000, 10_000), cfg)
        assert hi.noc_dynamic_uj > lo.noc_dynamic_uj

    def test_faster_execution_cuts_system_energy_per_inst(self):
        cfg = baseline_config()
        slow = energy_report(self._result(1000, 10_000), cfg)
        fast = energy_report(self._result(1000, 14_000), cfg)
        assert fast.system_pj_per_inst < slow.system_pj_per_inst

    def test_report_dict_roundtrip(self):
        cfg = baseline_config()
        rep = energy_report(self._result(100, 100), cfg)
        d = rep.as_dict()
        assert set(d) == {
            "noc_dynamic_uj", "noc_dynamic_pj_per_inst",
            "system_pj_per_inst", "insts", "cycles",
        }


class TestMeans:
    def test_amean(self):
        assert amean([1, 2, 3]) == 2

    def test_geomean(self):
        assert geomean([1, 4]) == pytest.approx(2.0)

    def test_hmean(self):
        assert hmean([1, 1]) == pytest.approx(1.0)
        assert hmean([2, 6]) == pytest.approx(3.0)

    def test_means_ignore_nonpositive_where_needed(self):
        assert geomean([0, 4]) == pytest.approx(4.0)
        # a mean of nothing is unmeasured, not a number that looks measured
        assert all(math.isnan(mean([])) for mean in (amean, geomean, hmean))
        assert math.isnan(hmean([0, -1]))


class TestFormatTable:
    def test_renders_rows_and_mean(self):
        rows = [("a", {"x": 1.0}), ("b", {"x": 3.0})]
        out = format_table("T", rows, mean="amean")
        assert "== T ==" in out
        assert "a" in out and "b" in out
        assert "2.000" in out  # the mean row

    def test_missing_cells_render_dash(self):
        rows = [("a", {"x": 1.0, "y": 2.0}), ("b", {"x": 3.0})]
        out = format_table("T", rows, columns=["x", "y"], mean=None)
        b_line = [l for l in out.splitlines() if l.startswith("b")][0]
        assert b_line.rstrip().endswith("-")

    def test_empty_rows(self):
        assert "(no data)" in format_table("T", [])
