"""Smoke test for the ablations experiment module."""

from conftest import assert_claim_columns

from repro.experiments import ablations


def test_ablations_smoke():
    result = ablations.run(benchmarks=["HS"], cycles=300, warmup=200)
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
        "pointer_accuracy",
        "frq_same_block_rate",
    }
    assert set(rows) == expected
    for label in expected - {"pointer_accuracy", "frq_same_block_rate"}:
        assert rows[label]["dr_speedup"] > 0
    assert 0.0 <= rows["frq_same_block_rate"]["dr_speedup"] <= 1.0
    assert "Ablations" in result.text
