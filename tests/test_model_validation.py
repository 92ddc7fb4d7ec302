"""Accuracy and screening contracts for the analytical surrogate.

Two pinned guarantees ride tier-1:

* the surrogate stays within its accuracy budget against the real
  simulator on the ``mesh4x4`` validation grid (the same gate CI's
  ``model_validate.sh`` enforces), and
* the hybrid sweep's surrogate screening keeps at most half of a
  saturation sweep, always keeps an unclogged anchor, and the jobs it
  does run produce bit-identical results to an unscreened sweep.
"""

import json

import pytest
from conftest import small_config

from repro.model.compose import Prediction, RHO_CAP, predict
from repro.model.saturation import assess, keep_mask, screen, screening_score
from repro.model.validate import (
    MEDIAN_ERROR_BUDGET,
    grid_specs,
    spearman,
    validate,
)
from repro.sweep import JobSpec, ResultCache, SweepRunner


def bw_sweep_specs(cycles=400, warmup=200):
    """NN across link bandwidths: spans clogged -> free (the knee)."""
    specs = []
    for bwf in (1.0, 2.0, 4.0, 8.0, 16.0, 32.0):
        cfg = small_config()
        cfg.noc.bandwidth_factor = bwf
        specs.append(
            JobSpec.make(
                cfg, "NN", "blackscholes", cycles=cycles, warmup=warmup,
                label=("bw", f"{bwf:g}x"),
            )
        )
    return specs


def synthetic(rho):
    return Prediction(
        gpu="X", cpu="y", mechanism="baseline",
        demand_rho=rho, saturated=rho > 1.0,
    )


class TestSpearman:
    def test_perfect_and_reversed(self):
        a = [1.0, 2.0, 3.0, 4.0]
        assert spearman(a, [10.0, 20.0, 30.0, 40.0]) == pytest.approx(1.0)
        assert spearman(a, [4.0, 3.0, 2.0, 1.0]) == pytest.approx(-1.0)

    def test_ties_and_degenerate(self):
        assert spearman([1.0, 1.0], [1.0, 2.0]) == 0.0
        assert spearman([1.0], [1.0]) == 0.0


class TestKeepMask:
    def test_keeps_everything_saturated(self):
        preds = [synthetic(r) for r in (1.5, 2.0, 7.0)]
        assert keep_mask(preds) == [True, True, True]

    def test_drops_far_field_but_anchors_one(self):
        preds = [synthetic(r) for r in (3.0, 0.9, 0.2, 0.1)]
        mask = keep_mask(preds)
        assert mask[0] and mask[1]      # clogged + knee guard band
        assert not mask[2]              # far field screened out
        assert mask[3]                  # lowest point kept as anchor
        assert sum(mask) == 3

    def test_band_widens_the_keep_set(self):
        preds = [synthetic(r) for r in (0.6, 0.05)]
        assert keep_mask(preds, band=0.1) == [False, True]  # 0.6 < 0.738
        assert keep_mask(preds, band=0.5) == [True, True]

    def test_empty(self):
        assert keep_mask([]) == []

    def test_score_is_demand_rho(self):
        assert screening_score(synthetic(1.7)) == 1.7


class TestAssess:
    def test_clogged_verdict_names_the_bottleneck(self):
        pred = predict(small_config(), "HS", "bodytrack")
        rep = assess(pred)
        assert rep.saturated
        assert rep.demand_rho > 1.0
        assert rep.bottleneck and rep.bottleneck in rep.verdict
        # carried load is throttled to RHO_CAP, so the bottleneck link
        # shows up at the plateau (near-saturated), not above CLOGGED_RHO
        assert rep.bottleneck in {**rep.clogged_links, **rep.near_links}

    def test_unsaturated_verdict(self):
        cfg = small_config()
        cfg.noc.bandwidth_factor = 32.0
        rep = assess(predict(cfg, "NN", "blackscholes"))
        assert not rep.saturated
        assert not rep.clogged_links


class TestScreening:
    def test_screen_keeps_at_most_half_of_a_saturation_sweep(self):
        specs = bw_sweep_specs()
        decision = screen(specs)
        assert 0 < len(decision.kept) <= len(specs) // 2
        # saturated low-bandwidth points simulate, far field is skipped
        kept_labels = {s.label for s in decision.kept}
        assert ("bw", "1x") in kept_labels
        assert ("bw", "2x") in kept_labels
        # the anchor is the least-loaded point of the far field
        anchored = [s for s, p in decision.skipped if p.demand_rho < 1.0]
        assert len(anchored) == len(decision.skipped)
        records = decision.skipped_records()
        assert len(records) == len(decision.skipped)
        assert all(r["demand_rho"] < 1.0 for r in records)
        assert all(r["key"] for r in records)

    def test_kept_jobs_are_bit_identical_to_an_unscreened_sweep(self, tmp_path):
        specs = bw_sweep_specs()

        full_runner = SweepRunner(cache=ResultCache(tmp_path / "full"), jobs=2)
        try:
            full = full_runner.run(specs)
        finally:
            full_runner.close()

        runner = SweepRunner(cache=ResultCache(tmp_path / "screened"), jobs=2)
        try:
            decision = screen(specs)
            screened = runner.run(decision.kept)
        finally:
            runner.close()

        assert set(screened) == {s.key() for s in decision.kept}
        for spec in decision.kept:
            a = full[spec.key()].result.to_dict()
            b = screened[spec.key()].result.to_dict()
            assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestValidationBudget:
    def test_mesh4x4_median_error_within_budget(self, tmp_path):
        report = validate(
            "mesh4x4", jobs=2, cache=ResultCache(tmp_path / "cache")
        )
        assert report.n_points == len(grid_specs("mesh4x4"))
        assert report.median_rel_err <= MEDIAN_ERROR_BUDGET
        assert report.spearman >= 0.9
        assert report.predict_ms_per_point < 50.0
        assert report.passed
        d = report.to_dict()
        assert d["passed"] is True
        assert len(d["points"]) == report.n_points

    def test_grid_specs_are_cache_stable(self, monkeypatch):
        keys = [s.key() for s in grid_specs("mesh4x4")]
        assert keys == [s.key() for s in grid_specs("mesh4x4")]
        with pytest.raises(ValueError):
            grid_specs("nope")

        # ... and shared with figure regeneration: the fig05 grid is the
        # set of jobs fig05_topology hands the sweep runner at the same
        # window and benchmark subset
        from repro.experiments import common, fig05_topology
        from repro.sweep.jobs import default_benchmarks

        class Captured(Exception):
            pass

        def capture(specs, jobs=None):
            raise Captured({spec.key() for spec in specs})

        monkeypatch.setattr(common, "run_sweep", capture)
        with pytest.raises(Captured) as simulated:
            common.run(
                [fig05_topology], benchmarks=default_benchmarks(subset=5),
                cycles=123, warmup=45,
            )
        grid = grid_specs("fig05", cycles=123, warmup=45)
        assert {s.key() for s in grid} == simulated.value.args[0]
        assert len(grid) == 4 * 2 * 5


@pytest.mark.parametrize(
    "data",
    [
        {"delegation": {"only_when_blocked": False}},  # section, no selector
        {"mechanism": "delegated_replies"},  # the selector alone
        {"probing": {"probe_width": 3}},
        {"mechanism": "realistic_probing"},
    ],
    ids=["dr-switch-only", "dr-selector-only",
         "rp-switch-only", "rp-selector-only"],
)
def test_surrogate_and_simulator_agree_on_what_enables_a_mechanism(data):
    # ``mechanism`` is the whole switch: the selector alone runs the
    # mechanism, and a mechanism's section without its selector is inert
    # — for the simulator, the surrogate and the config hash alike
    from repro.config import Mechanism, config_from_dict, mechanism_config
    from repro.sim.simulator import build_system

    cfg = config_from_dict(data)
    reference = mechanism_config(cfg.mechanism.value)
    system = build_system(cfg, "HS", "canneal")
    runs_dr = cfg.mechanism is Mechanism.DELEGATED_REPLIES
    runs_rp = cfg.mechanism is Mechanism.REALISTIC_PROBING
    assert all((mem.nic.delegation is not None) == runs_dr
               for mem in system.memory_nodes)
    assert all((core.probe is not None) == runs_rp
               for core in system.gpu_cores)

    pred = predict(cfg, "HS", "canneal")
    assert pred == predict(reference, "HS", "canneal")
    assert (pred.delegated_fraction > 0.0) == runs_dr
    assert cfg.config_hash() == reference.config_hash()


def test_rho_cap_documented_range():
    # the screening threshold derives from RHO_CAP; pin the contract the
    # docs and tests above assume.
    assert 0.7 < RHO_CAP < 1.0


def test_shared_network_surrogate_reads_the_request_virtual_network():
    # on one shared physical network (AVCP, Figs. 6 and 19) the simulator
    # reads request_vcs / reply_vcs and never vcs_per_port; the
    # surrogate's upstream-parking cap must follow the same field
    from repro.config import baseline_config

    def latency(request_vcs, vcs_per_port):
        cfg = baseline_config()
        cfg.noc.separate_physical_networks = False
        cfg.noc.request_vcs, cfg.noc.reply_vcs = request_vcs, 4 - request_vcs
        cfg.noc.vcs_per_port = vcs_per_port
        return predict(cfg, "HS", "canneal").cpu_latency_avg

    assert latency(1, 2) == latency(1, 4)
    assert latency(2, 2) == latency(2, 4)
    assert latency(1, 2) != latency(2, 2)
