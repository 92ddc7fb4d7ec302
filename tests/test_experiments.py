"""Smoke tests for the per-figure experiment modules.

Tiny windows and benchmark subsets: these verify plumbing, normalisation
and output shape, not the paper-scale numbers (the benchmark harness under
``benchmarks/`` regenerates those).
"""

import inspect

import pytest

from conftest import assert_claim_columns

from repro.config import baseline_config, mechanism_config
from repro.experiments import (
    ALL_EXPERIMENTS,
    ablations,
    area_energy,
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
    run,
    stall_decomposition,
)
from repro.experiments.claims import CLAIMS
from repro.experiments.common import mechanism_specs, ratio, traced
from repro.sweep.jobs import cpu_corunners, default_benchmarks, job
from repro.sweep import JobSpec, SweepRunner, run_sweep

FAST = dict(cycles=400, warmup=250)
BENCH2 = ["HS", "SC"]


@pytest.fixture(scope="module")
def swept():
    """``{key: SimulationResult}`` of every spec a test in this file has
    simulated, so each spec is simulated once per file run however many
    tests read it."""
    return {}


def results(specs, swept):
    """``{label: SimulationResult}`` for ``specs``, simulating (in one
    sweep) only those no earlier test left in ``swept``."""
    missing = {s.key(): s for s in specs.values() if s.key() not in swept}
    if missing:
        swept.update(run_sweep(list(missing.values())))
    return {label: swept[spec.key()] for label, spec in specs.items()}


def one(module, swept, **kwargs):
    """``module``'s table over its ``specs(**kwargs)``."""
    return module.tabulate(results(module.specs(**kwargs), swept))


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

    def test_sweep_keys(self):
        s = mechanism_specs(("HS",), 1, 300, 200)
        assert ("HS", "bodytrack", "baseline") in s
        assert ("HS", "bodytrack", "dr") in s


class TestFigureModules:
    def test_fig02(self, swept):
        r = one(fig02_locality, swept, benchmarks=BENCH2, **FAST)
        assert_claim_columns(r)
        assert len(r.rows) == 2
        for _, v in r.rows:
            assert 0 <= v["remote_l1_fraction"] <= 1

    def test_fig05(self, swept):
        r = one(fig05_topology, swept, benchmarks=["HS"], **FAST)
        assert_claim_columns(r)
        assert len(r.rows) == 8  # one per topology and bandwidth
        mesh_row = dict(r.rows)["mesh-1x"]
        assert mesh_row["hm_gpu_speedup"] == pytest.approx(1.0)

    def test_fig06(self, swept):
        r = one(fig06_avcp, swept, benchmarks=["HS"], **FAST)
        assert_claim_columns(r)
        (label, values), = r.rows
        assert "1req+3rep" in values and "avcp_vs_symmetric" in values

    def test_fig07(self, swept):
        r = one(fig07_adaptive, swept, benchmarks=["HS"], **FAST)
        assert_claim_columns(r)
        (_, values), = r.rows
        assert set(values) == {"dyxy", "footprint", "hare"}

    def test_fig09(self, swept):
        r = one(fig09_layout, swept, benchmarks=["HS"], **FAST)
        assert_claim_columns(r)
        assert len(r.rows) == 7
        ref = dict(r.rows)["Baseline YX-XY"]
        assert ref["gpu_perf"] == pytest.approx(1.0)
        assert ref["cpu_perf"] == pytest.approx(1.0)

    def test_fig10_to_fig14_share_one_sweep(self):
        r10, r11, r14 = run(
            [fig10_gpu_perf, fig11_data_rate, fig14_miss_breakdown],
            benchmarks=BENCH2, **FAST,
        )
        for r in (r10, r11, r14):
            assert_claim_columns(r)
        assert len(r10.rows) == len(r11.rows) == len(r14.rows) == 2
        assert r10.data["dr_mean_speedup"] > 0
        for _, v in r14.rows:
            total = v["llc"] + v["remote_hit"] + v["remote_miss"]
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_fig12_fig13_group_by_cpu(self):
        r12, r13 = run([fig12_cpu_latency, fig13_cpu_perf],
                       benchmarks=["HS"], n_mixes=2, **FAST)
        assert_claim_columns(r12)
        assert_claim_columns(r13)
        labels = [lbl for lbl, _ in r12.rows]
        assert set(labels) == {"bodytrack", "ferret"}
        assert len(r13.rows) == 2

    def test_fig15(self, swept):
        r = one(fig15_shared_l1, swept, benchmarks=["HS"], **FAST)
        assert_claim_columns(r)
        (_, values), = r.rows
        assert "dyneb+dr-rr" in values

    def test_fig16(self, swept):
        r = one(fig16_topology_dr, swept, benchmarks=["HS"], **FAST,
                topologies=list(fig16_topology_dr.TOPOLOGIES)[:2])
        assert_claim_columns(r)
        assert len(r.rows) == 2

    def test_fig17(self, swept):
        r = one(fig17_layout_dr, swept, benchmarks=["HS"], **FAST)
        assert_claim_columns(r)
        assert len(r.rows) == 4
        for _, v in r.rows:
            assert "gpu_dr_speedup" in v and "cpu_dr_speedup" in v

    def test_fig19_judged_panels(self, swept):
        judged = ["l1_size", "channel_width", "injection_buffer"]
        r = one(fig19_sensitivity, swept, benchmarks=["HS"], panels=judged,
                **FAST)
        assert_claim_columns(r)
        assert len(r.rows) == 9

    def test_node_mix(self, swept):
        r = one(node_mix, swept, benchmarks=["HS"], **FAST)
        assert_claim_columns(r)
        assert len(r.rows) >= 4

    def test_area_energy(self, swept):
        r = one(area_energy, swept, benchmarks=["HS"], **FAST)
        assert_claim_columns(r)
        d = dict(r.rows)
        assert d["baseline_noc_mm2"]["value"] == pytest.approx(2.27, abs=0.05)
        assert d["dr_total_mm2"]["value"] == pytest.approx(0.172, abs=0.01)
        assert d["rp_request_count"]["ratio"] > 1.5  # RP inflates requests

    @pytest.mark.parametrize("gpu", BENCH2)
    def test_fig02_counts_are_the_oracle_stepped_by_hand(self, gpu, swept):
        """The locality counts a traced job records are what an observer
        installed after warm-up and stepped through the window counts."""
        spec = job(baseline_config(), gpu, **FAST)
        system = spec.build()
        counts = {"misses": 0, "remote": 0}
        cores = system.gpu_cores

        def observer(core, block):
            counts["misses"] += 1
            for other in cores:
                if other is not core and (other.l1.contains(block)
                                          or other.mshrs.has(block)):
                    counts["remote"] += 1
                    return

        system.run(spec.warmup)
        for core in cores:
            core.miss_observer = observer
        system.run(spec.cycles)

        metrics = results({gpu: job(traced(baseline_config()), gpu, **FAST)},
                          swept)[gpu].telemetry_metrics
        assert counts["misses"] > 0
        assert (metrics["locality.misses"], metrics["locality.remote"]) == \
            (counts["misses"], counts["remote"])
        r = one(fig02_locality, swept, benchmarks=[gpu], **FAST)
        row = dict(r.rows)[gpu]
        assert row["remote_l1_fraction"] == ratio(counts["remote"],
                                                  counts["misses"])

    def test_result_text_is_renderable(self, swept):
        r = one(fig02_locality, swept, benchmarks=["HS"], **FAST)
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
def submitted(monkeypatch, swept):
    """Keys handed to ``SweepRunner.run``, one list per call; the results
    land in ``swept`` for later tests."""
    calls = []
    run = SweepRunner.run

    def recording_run(self, specs):
        calls.append([spec.key() for spec in specs])
        outcomes = run(self, specs)
        swept.update((key, out.result) for key, out in outcomes.items()
                     if out.result is not None)
        return outcomes

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
        run([module], **TINY)
        assert len(submitted) <= 1
        for keys in submitted:
            assert len(keys) == len(set(keys))

    def test_figures_run_together_share_the_private_rr_baseline(
        self, submitted
    ):
        run([fig07_adaptive, fig15_shared_l1], **TINY)
        keys, = submitted
        baseline = job(
            baseline_config(), "HS", TINY["cycles"], TINY["warmup"]
        ).key()
        assert keys.count(baseline) == 1
        assert len(keys) == len(set(keys))

    @pytest.mark.parametrize(
        "module", ALL_EXPERIMENTS, ids=lambda m: m.__name__.rsplit(".", 1)[-1]
    )
    def test_tabulate_simulates_nothing(self, module, monkeypatch, swept):
        labelled = results(module.specs(**TINY), swept)

        def refuse(*_args, **_kwargs):
            raise AssertionError("tabulate simulated")

        for target in ("repro.sweep.run_sweep",
                       "repro.experiments.common.run_sweep"):
            monkeypatch.setattr(target, refuse)
        monkeypatch.setattr(SweepRunner, "run", refuse)
        monkeypatch.setattr(JobSpec, "build", refuse)
        result = module.tabulate(labelled)
        assert result.name == module.__name__.rsplit(".", 1)[-1]

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
        self, module, kwargs, monkeypatch, swept
    ):
        serial = one(module, swept, **TINY, **kwargs)
        monkeypatch.setenv("REPRO_SWEEP_JOBS", "2")
        parallel, = run([module], **TINY, **kwargs)
        assert parallel.text == serial.text


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

    def test_subset_and_mixes_follow_env_after_import(self, monkeypatch):
        from repro.sweep import jobs

        monkeypatch.setenv("REPRO_BENCH_SUBSET", "2")
        monkeypatch.setenv("REPRO_MIXES", "3")
        assert jobs.figure_benchmarks(5) == ["HS", "SC"]
        assert jobs.default_mixes() == 3
        monkeypatch.delenv("REPRO_BENCH_SUBSET")
        monkeypatch.delenv("REPRO_MIXES")
        assert jobs.figure_benchmarks(5) == default_benchmarks(subset=5)
        assert jobs.default_mixes() == 2

    def test_judged_figures_share_one_default_co_runner_count(self):
        """``n_mixes`` left out is :func:`default_mixes` on every judged
        figure's ``specs`` and on ``mechanism_specs``, so ``python -m
        repro experiment`` and the claims loop run one sweep."""
        judged = {claim.figure for claim in CLAIMS}
        builders = [m.specs for m in ALL_EXPERIMENTS
                    if m.__name__.rsplit(".", 1)[-1] in judged]
        for fn in builders + [mechanism_specs]:
            n_mixes = inspect.signature(fn).parameters.get("n_mixes")
            assert n_mixes is None or n_mixes.default is None, fn

    def test_mechanism_specs_use_env_windows(self, monkeypatch):
        monkeypatch.setenv("REPRO_CYCLES", "180")
        monkeypatch.setenv("REPRO_WARMUP", "120")
        specs = mechanism_specs(("HS",), 1)
        assert specs[("HS", "bodytrack", "baseline")].cycles == 180
