"""Smoke tests for the per-figure experiment modules.

Tiny windows and benchmark subsets: these verify plumbing, normalisation
and output shape, not the paper-scale numbers (the benchmark harness under
``benchmarks/`` regenerates those).
"""

import pytest

from repro.config import baseline_config, mechanism_config
from repro.experiments import (
    ablations,
    area_energy,
    clear_sweep_cache,
    fig02_locality,
    fig05_topology,
    fig06_avcp,
    fig07_adaptive,
    fig09_layout,
    fig10_gpu_perf,
    fig11_data_rate,
    fig12_cpu_latency,
    fig13_cpu_perf,
    fig14_miss_breakdown,
    fig15_shared_l1,
    fig16_topology_dr,
    fig17_layout_dr,
    fig19_sensitivity,
    node_mix,
    stall_decomposition,
)
from repro.experiments.common import mechanism_sweep
from repro.sweep.jobs import cpu_corunners, default_benchmarks, job
from repro.sweep import SweepRunner

FAST = dict(cycles=400, warmup=250)
BENCH2 = ["HS", "SC"]


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_sweep_cache()
    yield
    clear_sweep_cache()


class TestCommon:
    def test_default_benchmarks_full(self):
        assert len(default_benchmarks()) == 11

    def test_default_benchmarks_subset_keeps_extremes(self):
        subset = default_benchmarks(subset=4)
        assert subset == ["HS", "SC", "3DCON", "NN"]

    def test_cpu_corunners_follow_table_ii(self):
        assert cpu_corunners("HS", 2) == ["bodytrack", "ferret"]

    def test_mechanism_config_unknown_rejected(self):
        with pytest.raises(ValueError):
            mechanism_config("bogus")

    def test_sweep_is_cached(self):
        s1 = mechanism_sweep(("HS",), 1, 300, 200, mechanisms=("baseline",))
        s2 = mechanism_sweep(("HS",), 1, 300, 200, mechanisms=("baseline",))
        assert s1 == s2 and all(s1[k] is s2[k] for k in s1)

    def test_sweep_keys(self):
        s = mechanism_sweep(("HS",), 1, 300, 200, mechanisms=("baseline", "dr"))
        assert ("HS", "bodytrack", "baseline") in s
        assert ("HS", "bodytrack", "dr") in s


class TestFigureModules:
    def test_fig02(self):
        r = fig02_locality.run(benchmarks=BENCH2, **FAST)
        assert len(r.rows) == 2
        for _, v in r.rows:
            assert 0 <= v["remote_l1_fraction"] <= 1

    def test_fig05(self):
        r = fig05_topology.run(benchmarks=["HS"], bandwidths=(1.0,), **FAST)
        assert len(r.rows) == 4  # one per topology
        mesh_row = dict(r.rows)["mesh-1x"]
        assert mesh_row["hm_gpu_speedup"] == pytest.approx(1.0)

    def test_fig06(self):
        r = fig06_avcp.run(benchmarks=["HS"], **FAST)
        (label, values), = r.rows
        assert "1req+3rep" in values and "avcp_vs_symmetric" in values

    def test_fig07(self):
        r = fig07_adaptive.run(benchmarks=["HS"], **FAST)
        (_, values), = r.rows
        assert set(values) == {"dyxy", "footprint", "hare"}

    def test_fig09(self):
        r = fig09_layout.run(benchmarks=["HS"], **FAST)
        assert len(r.rows) == 7
        ref = dict(r.rows)["Baseline YX-XY"]
        assert ref["gpu_perf"] == pytest.approx(1.0)
        assert ref["cpu_perf"] == pytest.approx(1.0)

    def test_fig10_to_fig14_share_one_sweep(self):
        r10 = fig10_gpu_perf.run(benchmarks=BENCH2, **FAST)
        r11 = fig11_data_rate.run(benchmarks=BENCH2, **FAST)
        r14 = fig14_miss_breakdown.run(benchmarks=BENCH2, **FAST)
        assert len(r10.rows) == len(r11.rows) == len(r14.rows) == 2
        assert r10.data["dr_mean_speedup"] > 0
        for _, v in r14.rows:
            total = v["llc"] + v["remote_hit"] + v["remote_miss"]
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_fig12_fig13_group_by_cpu(self):
        r12 = fig12_cpu_latency.run(benchmarks=["HS"], n_mixes=2, **FAST)
        r13 = fig13_cpu_perf.run(benchmarks=["HS"], n_mixes=2, **FAST)
        labels = [lbl for lbl, _ in r12.rows]
        assert set(labels) == {"bodytrack", "ferret"}
        assert len(r13.rows) == 2

    def test_fig15(self):
        r = fig15_shared_l1.run(benchmarks=["HS"], **FAST)
        (_, values), = r.rows
        assert "dyneb+dr-rr" in values

    def test_fig16(self):
        r = fig16_topology_dr.run(benchmarks=["HS"], **FAST,
                                  topologies=list(fig16_topology_dr.TOPOLOGIES)[:2])
        assert len(r.rows) == 2

    def test_fig17(self):
        r = fig17_layout_dr.run(benchmarks=["HS"], **FAST)
        assert len(r.rows) == 4
        for _, v in r.rows:
            assert "gpu_dr_speedup" in v and "cpu_dr_speedup" in v

    def test_fig19_single_panel(self):
        r = fig19_sensitivity.run(benchmarks=["HS"],
                                  panels=["injection_buffer"], **FAST)
        assert len(r.rows) == 3

    def test_node_mix(self):
        r = node_mix.run(benchmarks=["HS"], **FAST)
        assert len(r.rows) >= 4

    def test_area_energy(self):
        r = area_energy.run(benchmarks=["HS"], **FAST)
        d = dict(r.rows)
        assert d["baseline_noc_mm2"]["value"] == pytest.approx(2.27, abs=0.05)
        assert d["dr_total_mm2"]["value"] == pytest.approx(0.172, abs=0.01)
        assert d["rp_request_count"]["ratio"] > 1.5  # RP inflates requests

    def test_result_text_is_renderable(self):
        r = fig02_locality.run(benchmarks=["HS"], **FAST)
        assert r.text.startswith("==")
        assert str(r) == r.text


#: the modules that enumerate their own specs (everything but the
#: mechanism-sweep figures, fig02 and the chaos sweep)
CONFIG_STUDIES = [
    fig05_topology,
    fig06_avcp,
    fig07_adaptive,
    fig09_layout,
    fig15_shared_l1,
    fig16_topology_dr,
    fig17_layout_dr,
    fig19_sensitivity,
    node_mix,
    ablations,
    stall_decomposition,
]
TINY = dict(benchmarks=["HS"], cycles=100, warmup=60)


@pytest.fixture
def submitted(monkeypatch):
    """Keys handed to ``SweepRunner.run``, one list per call."""
    calls = []
    run = SweepRunner.run

    def recording_run(self, specs):
        calls.append([spec.key() for spec in specs])
        return run(self, specs)

    monkeypatch.setattr(SweepRunner, "run", recording_run)
    return calls


class TestOneSweepPerFigure:
    """Enumerate the specs, sweep once, tabulate — each spec once."""

    @pytest.mark.parametrize(
        "module", CONFIG_STUDIES, ids=lambda m: m.__name__.rsplit(".", 1)[-1]
    )
    def test_run_sweeps_at_most_once_without_duplicates(
        self, module, submitted
    ):
        module.run(**TINY)
        assert len(submitted) <= 1
        for keys in submitted:
            assert len(keys) == len(set(keys))
        # and asking again simulates nothing
        module.run(**TINY)
        assert len(submitted) <= 1

    def test_figures_share_the_private_rr_baseline(self, submitted):
        fig07_adaptive.run(**TINY)
        fig15_shared_l1.run(**TINY)
        keys = [key for call in submitted for key in call]
        baseline = job(
            baseline_config(), "HS", TINY["cycles"], TINY["warmup"]
        ).key()
        assert keys.count(baseline) == 1
        assert len(keys) == len(set(keys))

    @pytest.mark.parametrize(
        "module, kwargs",
        [
            (fig07_adaptive, {}),  # adaptive routing
            (fig15_shared_l1, {}),  # shared L1 organisations
            # 12x12 mesh and shared-vnet fabrics
            (fig19_sensitivity, {"panels": ["mesh_size", "virtual_networks"]}),
        ],
        ids=["fig07", "fig15", "fig19"],
    )
    def test_parallel_sweep_renders_the_serial_table(
        self, module, kwargs, monkeypatch
    ):
        serial = module.run(**TINY, **kwargs)
        clear_sweep_cache()
        monkeypatch.setenv("REPRO_SWEEP_JOBS", "2")
        assert module.run(**TINY, **kwargs).text == serial.text


class TestCallTimeWindowDefaults:
    """REPRO_CYCLES/REPRO_WARMUP are read at call time, not import time."""

    def test_defaults_follow_env_after_import(self, monkeypatch):
        from repro.sweep import jobs

        monkeypatch.setenv("REPRO_CYCLES", "555")
        monkeypatch.setenv("REPRO_WARMUP", "333")
        assert jobs.default_cycles() == 555
        assert jobs.default_warmup() == 333
        monkeypatch.delenv("REPRO_CYCLES")
        assert jobs.default_cycles() == 3000

    def test_mechanism_sweep_uses_env_windows(self, monkeypatch):
        monkeypatch.setenv("REPRO_CYCLES", "180")
        monkeypatch.setenv("REPRO_WARMUP", "120")
        sweep = mechanism_sweep(("HS",), 1, mechanisms=("baseline",))
        assert sweep[("HS", "bodytrack", "baseline")].cycles == 180
