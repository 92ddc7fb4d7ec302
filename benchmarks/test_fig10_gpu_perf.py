"""Bench: regenerate Fig. 10 (GPU speedups: DR vs RP vs baseline).

This is the paper's headline result: Delegated Replies improves GPU
performance by 25.7% on average (up to 65.9%) over the baseline and by
14.2% over Realistic Probing.
"""

from conftest import MIXES, record

from repro.experiments import fig10_gpu_perf


def test_fig10_gpu_perf(run_once):
    result = run_once(lambda: fig10_gpu_perf.run(n_mixes=MIXES))
    record(result)
    dr = result.data["dr_mean_speedup"]
    rp = result.data["rp_mean_speedup"]
    # who wins and by roughly what factor (paper: 1.257 vs 1.101)
    assert dr > rp > 1.0
    assert 1.10 < dr < 1.55
    assert result.data["dr_over_rp"] > 1.05
    by_bench = dict(result.rows)
    # per-benchmark shape: the best case gains >= 40% (paper: up to 65.9%,
    # on HS) and HS is among the top two — which of HS and 2DCON comes
    # first moves with the window length; SC/LUD/BP are the most modest
    ranked = sorted(by_bench, key=lambda b: -by_bench[b]["dr_speedup"])
    assert by_bench[ranked[0]]["dr_speedup"] >= 1.4
    assert "HS" in ranked[:2]
    for modest in ("SC", "LUD", "BP"):
        assert by_bench[modest]["dr_speedup"] < by_bench["HS"]["dr_speedup"]
    # DR helps (or at worst is neutral, within short-window noise) on
    # every single benchmark — the paper reports consistent improvement
    for name, v in by_bench.items():
        assert v["dr_speedup"] > 0.97, f"DR must not hurt {name}"
