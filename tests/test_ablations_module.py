"""Smoke test for the ablations experiment module."""

import pytest
from conftest import assert_claim_columns

from repro.config import baseline_config, delegated_replies_config
from repro.experiments import ablations, run
from repro.workloads.gpu import gpu_benchmark


def test_ablations_smoke():
    result, = run([ablations], benchmarks=["HS"], cycles=300, warmup=200)
    assert_claim_columns(result)
    rows = dict(result.rows)
    expected = {
        "delegate_on_block",
        "delegate_always",
        "frq_2_entries",
        "frq_4_entries",
        "frq_8_entries",
        "frq_16_entries",
        "no_pointer_invalidation",
        "frq_merging",
        "delegations_per_cycle_1",
        "delegations_per_cycle_2",
        "delegations_per_cycle_4",
    }
    assert set(rows) == expected
    for label in expected:
        assert list(rows[label]) == ["dr_speedup"]
        assert rows[label]["dr_speedup"] > 0
    assert 0.0 < result.data["pointer_accuracy"] <= 1.0
    assert 0.0 <= result.data["frq_same_block_rate"] <= 1.0
    assert "Ablations" in result.text
    assert "pointer_accuracy: " in result.text


@pytest.mark.parametrize("subset", [None, "1", "3", "11"])
def test_the_default_benchmarks_write_shared_data(monkeypatch, subset):
    """``no_pointer_invalidation`` edits what a shared write does, so a
    default run without a writer measures the paper configuration twice."""
    if subset is None:
        monkeypatch.delenv("REPRO_BENCH_SUBSET", raising=False)
    else:
        monkeypatch.setenv("REPRO_BENCH_SUBSET", subset)
    gpus = [gpu for _, gpu in ablations.specs(cycles=200, warmup=100)]
    assert any(gpu_benchmark(gpu).writes_shared for gpu in gpus)


def _leaves(data, prefix=""):
    """``{"section.field": value}`` of a nested config dict."""
    out = {}
    for key, value in data.items():
        if isinstance(value, dict):
            out.update(_leaves(value, f"{prefix}{key}."))
        else:
            out[prefix + key] = value
    return out


def _point_configs(point):
    """The (baseline, DR) configs ``ablations.specs`` runs ``point`` on."""
    specs = ablations.specs(benchmarks=["HS"], cycles=200, warmup=100)
    return tuple(specs[((point, i), "HS")].system_config() for i in (0, 1))


def _moved_field(point):
    """``{"section.field": value}`` a point sets away from the paper's DR
    configuration (empty for a point that restates the default)."""
    edit = ablations.POINTS[point]
    if edit is None:
        return {}
    section, name, value = edit
    paper = getattr(getattr(delegated_replies_config(), section), name)
    return {} if value == paper else {f"{section}.{name}": value}


@pytest.mark.parametrize("point", list(ablations.POINTS))
def test_a_point_edits_only_its_own_field(point):
    """The baseline is the one unmodified baseline system, and the DR side
    differs from the paper's DR configuration in the named field alone."""
    base, dr = _point_configs(point)
    assert base.to_dict() == baseline_config().to_dict()
    paper = _leaves(delegated_replies_config().to_dict())
    mine = _leaves(dr.to_dict())
    assert {k: v for k, v in mine.items() if paper[k] != v} == _moved_field(point)


@pytest.mark.parametrize("point", list(ablations.POINTS))
def test_a_point_that_moves_its_field_has_its_own_identity(point):
    """Every ablation field is live under DR: a point that moves it
    hashes apart from the paper configuration (one cache entry and one
    simulation each), and one that restates the default shares it."""
    _, dr = _point_configs(point)
    paper = delegated_replies_config().config_hash()
    assert (dr.config_hash() != paper) == bool(_moved_field(point))
