"""The claims table and its one judge, on hand-built results.

``benchmarks/test_claims.py`` runs the figures at paper windows; the only
simulations here are one-cycle windows that measure nothing.  These tests
pin what a path reads, how each kind judges it, that a benchmark the run
left out is ``n/a``, any other missing name ✗ and an unmeasured (NaN)
number ✗ (never ✓), that no row of the table can pass whatever it is
given, and that EXPERIMENTS.md's ledger is the rendering of the committed
``claims.json``.
"""

import importlib.util
import json
import math
import random
import re
from collections import Counter
from pathlib import Path

import pytest

from conftest import claim_terms

from repro.experiments import (
    ALL_EXPERIMENTS, fig09_layout, fig12_cpu_latency, run,
)
from repro.experiments.claims import (
    CLAIMS,
    KINDS,
    OPS,
    Claim,
    check,
    judge,
    render_markdown,
    rule,
)
from repro.experiments.common import ExperimentResult

ROOT = Path(__file__).resolve().parent.parent
CLAIMS_JSON = ROOT / "benchmarks" / "results" / "claims.json"


def result(rows=(), data=None, name="fig"):
    return ExperimentResult(name, list(rows), "", dict(data or {}))


def verdict(path, kind="sign", rows=(), data=None, **kw):
    return check(Claim("fig", "", path, kind, **kw), result(rows, data))


ROWS = [
    ("HS", {"s": 1.5, "t": 1.0, "u": 0.25}),
    ("SC", {"s": 0.9, "t": 1.2, "u": 0.5}),
    ("NN", {"s": 1.2, "t": 1.1, "u": 0.25}),
]


class TestPaths:
    def test_data_key(self):
        v = verdict("data.mean", data={"mean": 0.4}, bound=0.3)
        assert (v.verdict, v.value) == ("✓", 0.4)
        assert verdict("data.mean", data={"mean": 0.2}, bound=0.3).verdict == "✗"

    def test_one_rows_cell(self):
        v = verdict("SC.s", rows=ROWS)
        assert (v.verdict, v.value, v.row) == ("✗", 0.9, None)
        assert verdict("HS.s", rows=ROWS).verdict == "✓"

    def test_a_glob_must_hold_on_every_row_and_names_the_worst(self):
        v = verdict("*.s", rows=ROWS)
        assert (v.verdict, v.value, v.row) == ("✗", 0.9, "SC")
        v = verdict("*.s", rows=ROWS, bound=0.8)
        assert (v.verdict, v.value, v.row) == ("✓", 0.9, "SC")
        v = verdict("*.t", rows=ROWS, op="<", bound=1.15)
        assert (v.verdict, v.value, v.row) == ("✗", 1.2, "SC")
        rows = ROWS + [("l1:16KB", {"s": 0.5}), ("l1:64KB", {"s": 0.7})]
        v = verdict("l1:*.s", rows=rows, bound=0.6)
        assert (v.verdict, v.row) == ("✗", "l1:16KB")

    def test_column_aggregates(self):
        assert verdict("mean(*.s)", rows=ROWS).value == pytest.approx(3.6 / 3)
        assert verdict("max(*.s)", rows=ROWS).value == 1.5
        assert verdict("min(*.s)", rows=ROWS).value == 0.9
        assert verdict("min(*.s)", rows=ROWS, op="<", bound=1.0).verdict == "✓"

    def test_several_arguments_pick_per_row(self):
        v = verdict("min(*.s, *.t)", rows=ROWS, op="<", bound=1.10)
        assert (v.verdict, v.value, v.row) == ("✗", 1.1, "NN")
        v = verdict("max(HS.t, SC.t, NN.t)", rows=ROWS, op="<", bound=1.3)
        assert (v.verdict, v.value) == ("✓", 1.2)

    def test_rank_sorts_high_to_low(self):
        assert verdict("rank(HS.s)", rows=ROWS).value == 1
        assert verdict("rank(SC.s)", rows=ROWS).value == 3
        v = verdict("rank(NN.s)", rows=ROWS, op="<=", bound=1)
        assert (v.verdict, v.value) == ("✗", 2)

    def test_sums_add_scalars_or_rows(self):
        v = verdict("HS.u + NN.u", "ordering", rows=ROWS, other="SC.u")
        assert (v.verdict, v.value, v.against) == ("✗", 0.5, 0.5)
        v = verdict("*.s + *.u", rows=ROWS, bound=1.4)
        assert (v.verdict, v.value, v.row) == ("✗", 1.4, "SC")


class TestKinds:
    def test_sign_is_strict_or_not_as_stated(self):
        assert verdict("data.x", data={"x": 1.4}, op=">=", bound=1.4).verdict == "✓"
        assert verdict("data.x", data={"x": 1.4}, op=">", bound=1.4).verdict == "✗"

    def test_ordering_grants_relative_slack_toward_the_other_side(self):
        data = {"a": 0.96, "b": 1.0}
        assert verdict("data.a", "ordering", data=data,
                       other="data.b").verdict == "✗"
        v = verdict("data.a", "ordering", data=data, other="data.b", tol=0.05)
        assert (v.verdict, v.against) == ("✓", 0.95)
        v = verdict("data.b", "ordering", data=data, op="<", other="data.a",
                    tol=0.1)
        assert v.verdict == "✓" and v.against == pytest.approx(1.056)

    def test_ordering_slack_scales_the_whole_other_sum(self):
        claim = Claim("fig", "", "data.a + data.b", "ordering",
                      other="data.c + data.d", tol=0.05)
        assert rule(claim) == "data.a + data.b > (data.c + data.d) × 0.95"
        data = {"a": 0.5, "b": 0.5, "c": 0.5, "d": 0.5}
        v = check(claim, result(data=data))
        assert (v.verdict, v.value, v.against) == ("✓", 1.0, 0.95)
        claim = Claim("fig", "", "data.a", "ordering", other="data.c + data.d")
        assert rule(claim) == "data.a > data.c + data.d"

    def test_ordering_pairs_rows_with_rows(self):
        v = verdict("*.s", "ordering", rows=ROWS, other="*.t", tol=0.25)
        assert (v.verdict, v.row) == ("✓", "SC")
        v = verdict("*.s", "ordering", rows=ROWS, other="*.t")
        assert (v.verdict, v.row, v.against) == ("✗", "SC", 1.2)

    def test_band_is_a_target_and_half_width(self):
        v = verdict("data.x", "band", data={"x": 2.30}, op="<=", bound=2.27,
                    tol=0.05)
        assert (v.verdict, v.value, v.against) == ("✓", 2.30, 2.27)
        assert verdict("data.x", "band", data={"x": 2.33}, op="<=",
                       bound=2.27, tol=0.05).verdict == "✗"
        assert verdict("data.x", "band", data={"x": 1.0}, op="<=",
                       tol=0.0).verdict == "✓"
        assert verdict("data.x", "band", data={"x": 1.0 + 1e-12}, op="<=",
                       tol=0.0).verdict == "✗"

    def test_ratio_divides_by_the_other_path(self):
        v = verdict("max(*.s)", "ratio", rows=ROWS, op="<",
                    other="min(*.s)", bound=1.5)
        assert (v.verdict, v.value) == ("✗", pytest.approx(1.5 / 0.9))
        v = verdict("HS.s", "ratio", rows=ROWS, other="HS.t", bound=1.08)
        assert (v.verdict, v.value) == ("✓", 1.5)


class TestMissingIsNotPassing:
    @pytest.mark.parametrize("path, missing", [
        ("BP.s", "BP"),
        ("rank(BP.s)", "BP"),
        ("HS.s + BP.s", "BP"),
    ])
    def test_a_benchmark_the_run_left_out_reads_na(self, path, missing):
        v = verdict(path, rows=ROWS, bound=-1.0)
        assert v.verdict == f"n/a (missing {missing})"
        assert v.value is None and v.measured() == "—"

    @pytest.mark.parametrize("path, missing", [
        ("HS.z", "HS.z"),
        ("*.z", "HS.z"),
        ("x:*.s", "x:*"),
        ("mesh-2x.s", "mesh-2x"),
        ("data.nope", "data.nope"),
        ("mean(*.z)", "HS.z"),
        ("rank(HS.z)", "HS.z"),
    ])
    def test_any_other_missing_name_fails(self, path, missing):
        v = verdict(path, rows=ROWS, bound=-1.0)
        assert v.verdict == f"✗ (missing {missing})"
        assert v.value is None and v.measured() == "—"

    def test_a_glob_row_missing_its_column_fails(self):
        rows = ROWS + [("BP", {"t": 1.0})]
        assert verdict("*.s", rows=rows, bound=-1.0).verdict == \
            "✗ (missing BP.s)"

    def test_the_other_side_missing_is_na_too(self):
        v = verdict("HS.s", "ordering", rows=ROWS, other="vips.s")
        assert v.verdict == "n/a (missing vips)"

    def test_fig06_without_bp_is_na(self):
        """The result of ``fig06_avcp`` at three benchmarks has no BP row;
        its BP claim must say so, not pass."""
        rows = [(gpu, {"2req+2rep": 0.97, "1req+3rep": 1.02,
                       "3req+1rep": 0.8, "avcp_vs_symmetric": 1.05})
                for gpu in ("HS", "SC", "3DCON")]
        verdicts = judge(result(rows, name="fig06_avcp"))
        assert [v.verdict for v in verdicts] == [
            "✓", "✓", "n/a (missing BP)"]

    def test_fig06_without_a_symmetric_split_fails(self):
        """``fig06_avcp``'s ``avcp_vs_symmetric`` is NaN in a row whose
        symmetric split collapsed; both AVCP claims must fail, not pass."""
        rows = [(gpu, {"2req+2rep": 0.97, "1req+3rep": 1.02,
                       "3req+1rep": 0.8, "avcp_vs_symmetric": 1.05})
                for gpu in ("HS", "SC")]
        rows.append(("BP", {"2req+2rep": 0.0, "1req+3rep": 1.0,
                            "3req+1rep": 0.8, "avcp_vs_symmetric": math.nan}))
        verdicts = judge(result(rows, name="fig06_avcp"))
        assert [v.verdict for v in verdicts] == [
            "✗ (unmeasured)", "✗ (unmeasured)", "✗"]

    @pytest.mark.parametrize("path, kind, other", [
        ("data.nan", "sign", ""),
        ("HS.s", "sign", ""),
        ("*.s", "sign", ""),
        ("mean(*.s)", "sign", ""),
        ("min(*.s, *.t)", "sign", ""),
        ("rank(SC.s)", "sign", ""),
        ("SC.t", "ordering", "HS.s"),
        ("SC.t", "ratio", "*.s"),
    ])
    def test_a_nan_anywhere_a_claim_reads_is_unmeasured(
        self, path, kind, other
    ):
        """NaN is the mean of nothing and a ratio over a zero base; NaN
        compares false, so unchecked it could pass a ``<``/``>`` row."""
        rows = [("HS", {"s": math.nan, "t": 1.0}), *ROWS[1:]]
        for op in ("<", ">"):
            v = verdict(path, kind, rows=rows, data={"nan": math.nan},
                        op=op, bound=-1.0, other=other)
            assert v.verdict == "✗ (unmeasured)"
            assert v.value is None and v.measured() == "—"

    def test_a_ratio_over_zero_is_unmeasured(self):
        v = verdict("HS.s", "ratio", rows=[("HS", {"s": 1.0, "t": 0.0})],
                    op="<", other="HS.t", bound=1.5)
        assert v.verdict == "✗ (unmeasured)"

    @pytest.mark.parametrize("module, path", [
        (fig09_layout, "min(*.gpu_perf, *.cpu_perf)"),
        (fig12_cpu_latency, "data.mean_ratio"),
    ])
    def test_a_window_that_measured_nothing_fails(self, module, path):
        """In one cycle no GPU core retires and no CPU packet returns: the
        figure's numbers are NaN and its claim on them fails."""
        res, = run([module], benchmarks=["HS"], cycles=1, warmup=0)
        verdicts = {v.claim.path: v.verdict for v in judge(res)}
        assert verdicts[path] == "✗ (unmeasured)"

    def test_fig13_without_vips_is_na(self):
        rows = [(cpu, {"dr_speedup": 1.0, "min": 0.9, "max": 1.1,
                       "rp_speedup": 1.0})
                for cpu in ("bodytrack", "dedup", "canneal")]
        data = {"mean_speedup": 1.01, "clogged_mean_speedup": 1.05}
        verdicts = judge(result(rows, data, name="fig13_cpu_perf"))
        assert [v.verdict for v in verdicts] == [
            "✓", "✓", "n/a (missing vips)"]


def _form(term):
    call = re.fullmatch(r"(\w+)\((.*)\)", term)
    if call and ", " in call.group(2):
        return "pick"
    if call:
        return call.group(1)
    if term.startswith("data."):
        return "data"
    return "glob" if "*" in term.rsplit(".", 1)[0] else "label"


class TestTable:
    def test_every_row_names_a_figure_module_and_a_known_rule(self):
        figures = {m.__name__.rsplit(".", 1)[-1] for m in ALL_EXPERIMENTS}
        for claim in CLAIMS:
            assert claim.figure in figures, claim
            assert claim.kind in KINDS and claim.op in OPS, claim
            assert bool(claim.other) == (claim.kind in ("ordering", "ratio"))
            assert claim.paper and claim.tol >= 0, claim

    def test_every_path_form_and_kind_serves_two_rows(self):
        forms, kinds = Counter(), Counter(c.kind for c in CLAIMS)
        for claim in CLAIMS:
            seen = set()
            for path in filter(None, (claim.path, claim.other)):
                seen |= {_form(term) for term in path.split(" + ")}
                seen |= {"sum"} if " + " in path else set()
                seen |= {_form(t) for t in claim_terms(path)}
            forms.update(seen)
        assert set(forms) == {"data", "label", "glob", "mean", "max", "min",
                              "pick", "rank", "sum"}
        assert min(forms.values()) >= 2, forms
        assert set(kinds) == set(KINDS) and min(kinds.values()) >= 2, kinds


def _synthetic(claim, cells):
    """A result holding exactly the cells ``claim`` reads."""
    rows, data = {}, {}
    for (label, col), value in cells.items():
        if label is None:
            data[col] = value
        else:
            rows.setdefault(label, {})[col] = value
    return result(rows.items(), data, claim.figure)


def _cells(claim):
    """The cells a claim reads: each glob stands for two rows, and a rank
    gets five more rows to be ranked among."""
    cells = []
    for path in filter(None, (claim.path, claim.other)):
        for term in claim_terms(path):
            if term.startswith("data."):
                cells.append((None, term[5:]))
                continue
            pattern, col = term.rsplit(".", 1)
            for fill in ("a", "b") if "*" in pattern else ("",):
                cells.append((pattern.replace("*", fill), col))
            if path.startswith("rank("):
                cells += [(f"filler{i}", col) for i in range(5)]
    return list(dict.fromkeys(cells))


@pytest.mark.parametrize("claim", CLAIMS, ids=rule)
def test_every_row_turns_red_just_past_its_bound(claim):
    """Draw the cells a row reads until it has both passed and failed,
    then bisect between the two draws: a hair's change in what it measures
    flips it from ✓ to ✗, so no row passes whatever it is given."""
    cells = _cells(claim)
    rng = random.Random(rule(claim))
    pool = [0.25, 1 / 3, 0.5, 1.0, 1.5, 2.0,
            claim.bound / 2, claim.bound, claim.bound * 2]
    found = {}
    for _ in range(3000):
        same = rng.choice(pool)
        draw = {cell: same if rng.random() < 0.3 else
                rng.choice(pool + [rng.uniform(0.1, 3.0)]) for cell in cells}
        mark = check(claim, _synthetic(claim, draw)).verdict
        assert mark in ("✓", "✗"), mark
        found.setdefault(mark, draw)
        if len(found) == 2:
            break
    assert set(found) == {"✓", "✗"}, f"{rule(claim)} cannot {found}"

    def at(t):
        return {c: (1 - t) * found["✓"][c] + t * found["✗"][c]
                for c in cells}

    lo, hi = 0.0, 1.0
    while hi - lo > 1e-13:
        mid = (lo + hi) / 2
        if check(claim, _synthetic(claim, at(mid))).verdict == "✓":
            lo = mid
        else:
            hi = mid
    passing, failing = at(lo), at(hi)
    assert check(claim, _synthetic(claim, passing)).verdict == "✓"
    assert check(claim, _synthetic(claim, failing)).verdict == "✗"
    assert max(abs(passing[c] - failing[c]) for c in cells) < 1e-9


class TestLedger:
    def committed(self):
        return json.loads(CLAIMS_JSON.read_text(encoding="utf-8"))

    def test_experiments_md_table_is_the_rendered_claims_json(self):
        text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
        begin = text.index("<!-- claims:begin")
        begin = text.index("\n", begin) + 1
        end = text.index("<!-- claims:end -->")
        assert text[begin:end] == render_markdown(self.committed())
        # the loop's wall time is labelled as what it is
        assert re.search(
            r"took \d+ s at `REPRO_SWEEP_JOBS=\d+`(?: with a cache)?, "
            r"one unpaired run, which cannot compare two commits\)",
            text[begin:end],
        )

    def test_workers_and_cache_are_recorded_beside_not_in_the_settings(
            self, monkeypatch):
        """Only what changes a number decides whether a rerun merges into
        ``claims.json``; a one-figure rerun at another worker count must
        not replace the committed ledger."""
        path = ROOT / "benchmarks" / "conftest.py"
        spec = importlib.util.spec_from_file_location("bench_conftest", path)
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        for key in bench.RESULT_SETTINGS:
            monkeypatch.delenv(key, raising=False)
        monkeypatch.setenv("REPRO_CYCLES", "1200")
        monkeypatch.setenv("REPRO_SWEEP_JOBS", "2")
        monkeypatch.setenv("REPRO_SWEEP_CACHE", str(ROOT / "unused"))
        assert bench.run_settings() == {"REPRO_CYCLES": "1200"}
        assert bench.run_speed() == {"workers": 2, "sweep_cache": True}

    def test_the_wall_time_is_the_loops_not_a_figures(self):
        """One sweep runs every figure's jobs, so a figure has no wall
        time of its own: the loop's is recorded once."""
        doc = self.committed()
        assert {"wall_s", "workers", "sweep_cache"} <= set(doc)
        assert all(set(fig) == {"rows"} for fig in doc["figures"].values())

    def test_committed_rows_are_the_table_rows(self):
        """``claims.json`` was written from the current :data:`CLAIMS`
        and holds every figure that has claims."""
        figures = self.committed()["figures"]
        assert list(figures) == list(dict.fromkeys(c.figure for c in CLAIMS))
        for name, fig in figures.items():
            expected = [(rule(c), c.paper) for c in CLAIMS if c.figure == name]
            assert [(r["check"], r["paper"]) for r in fig["rows"]] == expected
