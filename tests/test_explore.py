"""repro.explore: Pareto mechanics, search spaces, env, hybrid search, CLI."""

from __future__ import annotations

import json
import random

import pytest

from repro.__main__ import main
from repro.config import ConfigError
from repro.explore.env import ExploreEnv
from repro.explore.objectives import OBJECTIVE_NAMES, SENSES, from_prediction
from repro.explore.pareto import (
    FrontierPoint,
    ParetoFrontier,
    crowded_fronts,
    crowding_distance,
    default_reference,
    dominates,
    hypervolume,
    non_dominated_sort,
)
from repro.explore.search import explore, nsga2_search, random_search
from repro.explore.space import demo_space, Knob, SearchSpace


def _manifest_no_clock(outcome):
    data = outcome.manifest()
    data.pop("wall_time_s")
    return data


class TestDominance:
    def test_min_min(self):
        assert dominates((1.0, 1.0), (2.0, 2.0), ("min", "min"))
        assert not dominates((2.0, 2.0), (1.0, 1.0), ("min", "min"))

    def test_mixed_senses(self):
        # second objective maximised: (1, 5) beats (2, 3) on both
        assert dominates((1.0, 5.0), (2.0, 3.0), ("min", "max"))
        assert not dominates((1.0, 3.0), (2.0, 5.0), ("min", "max"))

    def test_equal_vectors_do_not_dominate(self):
        assert not dominates((1.0, 1.0), (1.0, 1.0), ("min", "min"))

    def test_incomparable(self):
        senses = ("min", "min")
        assert not dominates((1.0, 3.0), (3.0, 1.0), senses)
        assert not dominates((3.0, 1.0), (1.0, 3.0), senses)


class TestNonDominatedSort:
    def test_hand_built_fronts(self):
        senses = ("min", "min")
        rows = [
            (1.0, 4.0),  # front 0
            (2.0, 2.0),  # front 0
            (4.0, 1.0),  # front 0
            (2.0, 5.0),  # dominated by row 0 -> front 1
            (3.0, 3.0),  # dominated by row 1 -> front 1
            (5.0, 5.0),  # dominated by rows 3 and 4 -> front 2
        ]
        fronts = non_dominated_sort(rows, senses)
        assert fronts == [[0, 1, 2], [3, 4], [5]]

    def test_single_front_when_incomparable(self):
        rows = [(1.0, 3.0), (2.0, 2.0), (3.0, 1.0)]
        assert non_dominated_sort(rows, ("min", "min")) == [[0, 1, 2]]

    def test_empty(self):
        assert non_dominated_sort([], ("min", "min")) == []


class TestCrowding:
    def test_boundaries_infinite(self):
        rows = [(0.0, 4.0), (1.0, 2.0), (4.0, 0.0)]
        crowd = crowding_distance(rows)
        assert crowd[0] == float("inf")
        assert crowd[2] == float("inf")
        assert 0.0 < crowd[1] < float("inf")

    def test_two_or_fewer_all_infinite(self):
        assert crowding_distance([(1.0, 1.0)]) == [float("inf")]
        assert crowding_distance([(1.0, 2.0), (2.0, 1.0)]) == [
            float("inf"), float("inf")
        ]


    def test_crowded_fronts_rank_isolated_first(self):
        rows = [(1.0, 4.0), (2.0, 2.5), (2.2, 2.2), (4.0, 1.0), (5.0, 5.0)]
        fronts = crowded_fronts(rows, ("min", "min"))
        # boundaries (inf) by index, then row 2 (crowding 1.17) before
        # row 1 (1.0); the dominated row is front 1
        assert [[i for i, _ in f] for f in fronts] == [[0, 3, 2, 1], [4]]


class TestHypervolume:
    def test_closed_form_2d(self):
        # min/min: one point at (1, 1) under reference (3, 3) covers 2x2
        assert hypervolume([(1.0, 1.0)], (3.0, 3.0), ("min", "min")) == 4.0

    def test_staircase_2d(self):
        # (1,2) and (2,1) under ref (3,3): 2*1 + 1*2 - 1*1 overlap = 3
        hv = hypervolume([(1.0, 2.0), (2.0, 1.0)], (3.0, 3.0), ("min", "min"))
        assert hv == pytest.approx(3.0)

    def test_max_sense_flips(self):
        # max/max with ref (0, 0): point (2, 3) covers 6
        hv = hypervolume([(2.0, 3.0)], (0.0, 0.0), ("max", "max"))
        assert hv == pytest.approx(6.0)

    def test_point_outside_reference_contributes_nothing(self):
        assert hypervolume([(5.0, 5.0)], (3.0, 3.0), ("min", "min")) == 0.0

    def test_3d_box(self):
        hv = hypervolume(
            [(1.0, 1.0, 1.0)], (2.0, 3.0, 4.0), ("min", "min", "min")
        )
        assert hv == pytest.approx(1.0 * 2.0 * 3.0)

    def test_monotone_in_points(self):
        senses = ("min", "min")
        ref = (10.0, 10.0)
        a = hypervolume([(4.0, 4.0)], ref, senses)
        b = hypervolume([(4.0, 4.0), (2.0, 6.0)], ref, senses)
        assert b > a

    def test_default_reference_margin(self):
        rows = [(0.0, 10.0), (4.0, 2.0)]
        ref = default_reference(rows, ("min", "max"))
        # nadir is (4, 2) with a 10% span margin outward
        assert ref[0] > 4.0
        assert ref[1] < 2.0


class TestParetoFrontier:
    def _point(self, i, vec):
        return FrontierPoint(
            config_hash=f"h{i}", gpu="SC", cpu="canneal", mechanism="baseline",
            values={}, objectives=dict(zip(OBJECTIVE_NAMES, vec)),
        )

    def _vec(self, a, b):
        # (latency min, throughput max, area min, energy min) with the two
        # trailing objectives held constant so 2D intuition applies
        return (a, b, 1.0, 1.0)

    def _frontier(self, *vecs):
        points = [self._point(i, v) for i, v in enumerate(vecs)]
        return ParetoFrontier(OBJECTIVE_NAMES, SENSES, points)

    def test_dominated_points_are_not_members(self):
        # h1 is dominated by h0 (higher latency, lower throughput); h2
        # dominates h0, wherever it sits in the stream
        f = self._frontier(self._vec(5.0, 5.0), self._vec(6.0, 4.0),
                           self._vec(4.0, 6.0))
        assert [p.config_hash for p in f.points] == ["h2"]

    def test_incomparable_coexist(self):
        f = self._frontier(self._vec(1.0, 1.0), self._vec(2.0, 2.0))
        assert len(f) == 2

    def test_equal_vector_is_one_member(self):
        # a design whose vector equals a member's is not a second member;
        # the first one in the stream stays
        f = self._frontier(self._vec(1.0, 1.0), self._vec(2.0, 2.0),
                           self._vec(1.0, 1.0))
        assert [p.config_hash for p in f.points] == ["h0", "h1"]

    def test_round_trip(self):
        f = self._frontier(self._vec(1.0, 1.0), self._vec(2.0, 2.0))
        clone = ParetoFrontier.from_dict(f.to_dict())
        assert clone.to_dict() == f.to_dict()


class TestSearchSpace:
    def test_size_and_default(self):
        space = demo_space("mesh4x4")
        assert space.size == 3 * 2 * 2 * 3 * 2 * 3 * 3  # 648
        cfg, gpu, cpu = space.decode(space.default_genome())
        assert gpu == "SC"
        assert cfg.mesh_width == 4 and cfg.n_gpu == 10

    def test_encode_values_inverse(self):
        space = demo_space("mesh4x4")
        g = space.encode({"mechanism": "dr", "vcs_per_port": 4})
        vals = space.values(g)
        assert vals["mechanism"] == "dr" and vals["vcs_per_port"] == 4
        assert space.encode(vals) == g

    def test_inert_genes_collapse_to_one_hash(self):
        space = demo_space("mesh4x4")
        a = space.encode({"mechanism": "baseline",
                          "max_delegations_per_cycle": 1})
        b = space.encode({"mechanism": "baseline",
                          "max_delegations_per_cycle": 4})
        assert a != b
        assert (space.decode(a)[0].config_hash()
                == space.decode(b)[0].config_hash())

    def test_dr_genes_are_not_inert(self):
        space = demo_space("mesh4x4")
        a = space.encode({"mechanism": "dr", "max_delegations_per_cycle": 1})
        b = space.encode({"mechanism": "dr", "max_delegations_per_cycle": 4})
        assert (space.decode(a)[0].config_hash()
                != space.decode(b)[0].config_hash())

    def test_operators_stay_in_range(self):
        space = demo_space("mesh8x8")
        rng = random.Random(3)
        g = space.random_genome(rng)
        for _ in range(50):
            g = space.mutate(g, rng, rate=0.7)
            h = space.crossover(g, space.random_genome(rng), rng)
            space.decode(h)  # raises if any gene is out of range

    def test_reference_genomes_cover_mechanisms_at_high_injection(self):
        space = demo_space("mesh8x8")
        refs = [space.values(g) for g in space.reference_genomes()]
        assert [r["mechanism"] for r in refs] == ["baseline", "dr", "rp"]
        assert all(r["gpu"] == "SC" for r in refs)

    def test_bad_space_name(self):
        with pytest.raises(ValueError):
            demo_space("mesh2x2")

    def test_bad_knob_path_fails_fast(self):
        with pytest.raises(ConfigError, match="noc.'not_a_field'"):
            SearchSpace(
                name="broken", mesh="4x4",
                knobs=(Knob("x", (1, 2), "noc.not_a_field"),
                       Knob("y", (1, 2), "noc.vcs_per_port")),
            )

    @pytest.mark.parametrize("mesh", ["4by4", "4x", "4x4x4", None])
    def test_bad_mesh_fails_fast_naming_the_field(self, mesh):
        with pytest.raises(ValueError, match="mesh must be '<width>x<height>'"):
            SearchSpace(
                name="broken", mesh=mesh,
                knobs=(Knob("y", (1, 2), "noc.vcs_per_port"),),
            )


class TestExploreEnv:
    def test_memoised_by_design(self):
        space = demo_space("mesh4x4")
        env = ExploreEnv(space)
        a = space.encode({"mechanism": "baseline",
                          "max_delegations_per_cycle": 1})
        b = space.encode({"mechanism": "baseline",
                          "max_delegations_per_cycle": 4})
        r1, r2 = env.evaluate(a), env.evaluate(b)
        assert r1 is r2  # inert-gene twins share one memo entry
        assert env.evaluations == 1

    def test_spec_matches_sweep_convention(self):
        space = demo_space("mesh4x4")
        env = ExploreEnv(space, cycles=400, warmup=200)
        spec = env.spec(space.default_genome())
        assert spec.cycles == 400 and spec.warmup == 200
        assert spec.label[0] == "explore"
        cfg, gpu, _cpu = space.decode(space.default_genome())
        assert spec.system_config().config_hash() == cfg.config_hash()


class TestSearchPolicies:
    def test_budget_is_respected(self):
        env = ExploreEnv(demo_space("mesh4x4"))
        records, _ = nsga2_search(env, budget=12, population=6, seed=1)
        assert len(records) <= 12

    def test_random_budget(self):
        env = ExploreEnv(demo_space("mesh4x4"))
        records, history = random_search(env, budget=10, population=4, seed=1)
        assert len(records) == 10
        assert history[-1]["evaluations"] == 10

    def test_anchors_always_evaluated(self):
        space = demo_space("mesh4x4")
        env = ExploreEnv(space)
        records, _ = nsga2_search(env, budget=8, population=4, seed=0)
        anchor_hashes = {
            space.decode(g)[0].config_hash()
            for g in space.reference_genomes()
        }
        assert anchor_hashes <= {r.config_hash for r in records}


    def test_history_frontier_is_the_manifest_frontier(self):
        # one frontier rule; this run evaluates designs whose vectors
        # equal a frontier member's
        data = explore("mesh4x4", budget=32, population=12, seed=0,
                       surrogate_only=True).manifest()
        assert (data["history"][-1]["frontier_size"]
                == len(data["surrogate_frontier"]["points"]))


class TestDeterminism:
    """Satellite: full-search reproducibility under a pinned --seed."""

    def test_same_seed_identical_manifest(self):
        a = explore("mesh4x4", budget=16, population=8, seed=11,
                    surrogate_only=True)
        b = explore("mesh4x4", budget=16, population=8, seed=11,
                    surrogate_only=True)
        assert _manifest_no_clock(a) == _manifest_no_clock(b)

    def test_different_seed_different_stream(self):
        a = explore("mesh4x4", budget=16, population=8, seed=1,
                    surrogate_only=True)
        b = explore("mesh4x4", budget=16, population=8, seed=2,
                    surrogate_only=True)
        assert ([r.config_hash for r in a.records]
                != [r.config_hash for r in b.records])

    def test_both_algorithms_deterministic(self):
        for algo in ("nsga2", "random"):
            a = explore("mesh4x4", algo=algo, budget=12, population=6,
                        seed=5, surrogate_only=True)
            b = explore("mesh4x4", algo=algo, budget=12, population=6,
                        seed=5, surrogate_only=True)
            assert _manifest_no_clock(a) == _manifest_no_clock(b)


class TestHybridExplore:
    """The surrogate-screen + simulate driver (small windows)."""

    def _run(self, tmp_path, seed=0):
        return explore(
            "mesh4x4", budget=10, population=6, seed=seed,
            cycles=300, warmup=150, jobs=1,
            cache=str(tmp_path / "cache"),
        )

    def test_sim_share_capped(self, tmp_path):
        out = self._run(tmp_path)
        space = demo_space("mesh4x4")
        n_anchors = len(space.reference_genomes())
        cap = max(n_anchors, int(0.2 * out.evaluated))
        assert 0 < out.simulated <= cap
        assert out.simulated <= 0.2 * out.evaluated or out.simulated == n_anchors
        assert out.failed == 0

    def test_anchor_designs_simulated(self, tmp_path):
        out = self._run(tmp_path)
        space = demo_space("mesh4x4")
        sim_hashes = {
            r.config_hash for r in out.records
            if r.sim_objectives is not None
        }
        for g in space.reference_genomes():
            assert space.decode(g)[0].config_hash() in sim_hashes

    def test_frontier_is_simulated_tier(self, tmp_path):
        out = self._run(tmp_path)
        assert len(out.frontier) > 0
        assert all(p.source == "simulated" for p in out.frontier.points)
        assert out.dr_dominance is not None
        assert out.dr_dominance["tier"] == "simulated"

    def test_bit_identical_resume_from_cache(self, tmp_path):
        first = self._run(tmp_path)
        second = self._run(tmp_path)
        # every promoted job replays from the cache bit-identically
        assert second.cached == second.simulated == first.simulated
        a = {r.config_hash: r.sim_objectives for r in first.records
             if r.sim_objectives is not None}
        b = {r.config_hash: r.sim_objectives for r in second.records
             if r.sim_objectives is not None}
        assert a == b

        def strip_cache_flags(outcome):
            data = _manifest_no_clock(outcome)
            data["counts"].pop("cached")
            for rec in data["evaluations"]:
                rec.pop("cached")
            return data

        # the only legitimate delta is the cached-vs-fresh provenance flag
        assert strip_cache_flags(first) == strip_cache_flags(second)


class TestExploreCli:
    def _run_json(self, tmp_path, extra=(), seed="3"):
        out = tmp_path / f"m{seed}{len(tuple(extra))}.json"
        rc = main([
            "explore", "run", "--space", "mesh4x4", "--surrogate-only",
            "--budget", "14", "--population", "6", "--seed", seed,
            "--out", str(out), "--format", "json", *extra,
        ])
        assert rc == 0
        return out

    def test_run_writes_manifest(self, tmp_path, capsys):
        out = self._run_json(tmp_path)
        stdout = capsys.readouterr().out
        printed = json.loads(stdout)
        with open(out) as fh:
            on_disk = json.load(fh)
        assert printed["schema"] == "explore-v1"
        assert printed == on_disk
        assert printed["counts"]["evaluated"] <= 14
        assert printed["frontier"]["points"]

    def test_run_seed_reproducible(self, tmp_path, capsys):
        a = self._run_json(tmp_path, seed="9")
        capsys.readouterr()
        again = tmp_path / "again"
        again.mkdir()
        b = self._run_json(again, seed="9")
        capsys.readouterr()
        with open(a) as fh:
            da = json.load(fh)
        with open(b) as fh:
            db = json.load(fh)
        da.pop("wall_time_s"), db.pop("wall_time_s")
        assert da == db

    def test_frontier_inspect_and_compare(self, tmp_path, capsys):
        nsga2 = self._run_json(tmp_path)
        capsys.readouterr()
        rnd = self._run_json(tmp_path, extra=("--algo", "random"))
        capsys.readouterr()
        rc = main(["explore", "frontier", str(nsga2), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["frontier"]["points"]
        rc = main(["explore", "frontier", str(nsga2), "--compare", str(rnd),
                   "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        cmp = payload["compare"]
        assert cmp["winner"] in (str(nsga2), str(rnd), "tie")
        assert cmp["hypervolume"] >= 0 and cmp["other_hypervolume"] >= 0

    def test_run_and_frontier_print_one_table(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        rc = main([
            "explore", "run", "--space", "mesh4x4", "--surrogate-only",
            "--budget", "14", "--population", "6", "--seed", "3",
            "--out", str(out),
        ])
        assert rc == 0
        printed_by_run = capsys.readouterr().out
        assert main(["explore", "frontier", str(out)]) == 0
        table = capsys.readouterr().out
        assert "DR-dominates-baseline" in table
        assert printed_by_run == table + f"wrote {out}\n"

    def test_frontier_rejects_non_manifest(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text("{}")
        rc = main(["explore", "frontier", str(bogus)])
        assert rc == 2
        assert "not an explore manifest" in capsys.readouterr().err

    def test_show(self, capsys):
        rc = main(["explore", "show", "--space", "mesh8x8", "--format", "json"])
        desc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert desc["size"] == 3 * 3 * 2 * 3 * 2 * 2 * 2 * 3 * 3
        assert [o["name"] for o in desc["objectives"]] == list(OBJECTIVE_NAMES)
        assert len(desc["reference_designs"]) == 3


class TestObjectives:
    def test_from_prediction_names_and_area(self):
        from repro.model.compose import predict

        space = demo_space("mesh4x4")
        cfg, gpu, cpu = space.decode(
            space.encode({"mechanism": "dr"})
        )
        obj = from_prediction(cfg, predict(cfg, gpu, cpu))
        assert set(obj) == set(OBJECTIVE_NAMES)
        assert all(v > 0 for v in obj.values())
        # DR carries an area overhead over the plain NoC
        base_cfg, _, _ = space.decode(space.default_genome())
        base_obj = from_prediction(base_cfg, predict(base_cfg, gpu, cpu))
        assert obj["area_mm2"] > base_obj["area_mm2"]
