"""Ablation studies of Delegated Replies' design choices.

The paper motivates several design decisions without dedicated figures;
these ablations quantify them on our reproduction:

* **Delegate-on-block vs. delegate-always** — the paper delegates only
  when the reply network cannot accept traffic ("we do not want to
  unnecessarily expose the cores to overhead", Section II).
* **FRQ sizing** — the paper picks 8 entries (Section IV); sweeping shows
  where the queue starts back-pressuring the request network.
* **Pointer invalidation on writes** — the Section IV coherence rule;
  disabling it leaves stale pointers that delegate to cores holding
  outdated lines (more remote misses, wasted round trips).
* **Delegations per cycle** — the request-injection-link budget.
* **Pointer accuracy** — the fraction of delegated requests served
  remotely (the paper reports a 74.5% average pointer hit rate).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.analysis.report import amean, format_table
from repro.config import baseline_config, delegated_replies_config
from repro.experiments.common import ExperimentResult, dr_over_baseline
from repro.sweep.jobs import default_benchmarks


#: design point -> the one DR-config field it edits, as
#: (section, field, value); None is the paper's configuration
POINTS = {
    "delegate_on_block (paper)": None,
    "delegate_always": ("delegation", "only_when_blocked", False),
    **{
        f"frq_{n}_entries": ("gpu_l1", "frq_entries", n)
        for n in (2, 4, 8, 16)
    },
    "no_pointer_invalidation": ("llc", "pointer_invalidate_on_write", False),
    "frq_merging (paper rejects)": ("delegation", "frq_merge", True),
    **{
        f"delegations_per_cycle_{n}":
            ("delegation", "max_delegations_per_cycle", n)
        for n in (1, 2, 4)
    },
}


def run(
    benchmarks: Optional[Sequence[str]] = None,
    cycles: Optional[int] = None,
    warmup: Optional[int] = None,
) -> ExperimentResult:
    """Run every ablation; one row per design point."""
    benchmarks = list(benchmarks or default_benchmarks(subset=3))
    # every design point edits DR only: the baseline it is measured
    # against is the one unmodified baseline system
    pairs = {}
    for label, edit in POINTS.items():
        cfg = delegated_replies_config()
        if edit:
            section, name, value = edit
            setattr(getattr(cfg, section), name, value)
        pairs[label] = (baseline_config(), cfg)
    runs = dr_over_baseline(pairs, benchmarks, cycles, warmup)
    rows: List[Tuple[str, dict]] = [
        (label, {"dr_speedup": amean(dr.gpu_ipc / base.gpu_ipc
                                     for base, dr in runs[label])})
        for label in pairs
    ]

    # pointer accuracy on the paper configuration (Fig. 14's remote hit
    # rate; the paper quotes 74.5% average), and the FRQ same-block rate
    # that justifies not merging (the paper measures 4.8%)
    hits, merge_rates = [], []
    for _, dr in runs["delegate_on_block (paper)"]:
        if dr.remote_hit_fraction > 0:
            hits.append(dr.remote_hit_fraction)
        enq = dr.counters.get("gpu.frq_enqueued", 0)
        if enq:
            merge_rates.append(
                dr.counters.get("gpu.frq_merge_opportunities", 0) / enq
            )
    rows.append(("pointer_accuracy", {"dr_speedup": amean(hits)}))
    rows.append(("frq_same_block_rate", {"dr_speedup": amean(merge_rates)}))

    text = format_table(
        "Ablations: Delegated Replies design choices "
        "(paper picks delegate-on-block, 8 FRQ entries, write invalidation)",
        rows,
        mean=None,
        label_header="design point",
    )
    return ExperimentResult(
        name="ablations",
        description="Ablation studies of DR design choices",
        rows=rows,
        text=text,
        data={"benchmarks": benchmarks},
    )
