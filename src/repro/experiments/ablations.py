"""Ablation studies of Delegated Replies' design choices.

The paper motivates several design decisions without dedicated figures;
these ablations quantify them on our reproduction:

* **Delegate-on-block vs. delegate-always** — the paper delegates only
  when the reply network cannot accept traffic (Section II).
* **FRQ sizing** — sweeping the FRQ depth shows where the queue starts
  back-pressuring the request network (Section IV).
* **Pointer invalidation on writes** — the Section IV coherence rule;
  disabling it leaves stale pointers that delegate to cores holding
  outdated lines (more remote misses, wasted round trips).
* **FRQ merging** — the design Section IV rejects.
* **Delegations per cycle** — the request-injection-link budget.
* **Pointer accuracy** — the fraction of delegated requests served
  remotely (``data``, beside the FRQ same-block rate: neither is a
  speedup).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.report import amean
from repro.config import baseline_config, delegated_replies_config
from repro.experiments.common import (
    ExperimentResult, Results, Specs, dr_over_baseline, dr_speedup_rows,
    pair_specs, points_and_benchmarks, table,
)
from repro.sweep.jobs import figure_benchmarks


#: design point -> the one DR-config field it edits, as
#: (section, field, value); None is the paper's configuration
POINTS = {
    "delegate_on_block": None,
    "delegate_always": ("delegation", "only_when_blocked", False),
    **{
        f"frq_{n}_entries": ("gpu_l1", "frq_entries", n)
        for n in (2, 4, 8, 16)
    },
    "no_pointer_invalidation": ("llc", "pointer_invalidate_on_write", False),
    "frq_merging": ("delegation", "frq_merge", True),
    **{
        f"delegations_per_cycle_{n}":
            ("delegation", "max_delegations_per_cycle", n)
        for n in (1, 2, 4)
    },
}

#: the one Table II profile that writes shared data: without it
#: ``no_pointer_invalidation`` runs exactly the paper configuration's jobs
WRITER = "BP"


def specs(
    benchmarks: Optional[Sequence[str]] = None,
    cycles: Optional[int] = None,
    warmup: Optional[int] = None,
) -> Specs:
    """Every ablation's DR config and the baseline on every benchmark
    (by default the figure's subset plus :data:`WRITER`)."""
    # every design point edits DR only: the baseline it is measured
    # against is the one unmodified baseline system
    pairs = {}
    for label, edit in POINTS.items():
        cfg = delegated_replies_config()
        if edit:
            section, name, value = edit
            setattr(getattr(cfg, section), name, value)
        pairs[label] = (baseline_config(), cfg)
    benchmarks = benchmarks or list(dict.fromkeys([*figure_benchmarks(3), WRITER]))
    return pair_specs(pairs, benchmarks, cycles, warmup)


def tabulate(results: Results) -> ExperimentResult:
    """One row per ablation; the paper configuration's pointer accuracy
    and FRQ same-block rate go to ``data`` and the note."""
    runs = dr_over_baseline(results)
    rows = dr_speedup_rows(runs)

    # pointer accuracy on the paper configuration (Fig. 14's remote hit
    # rate), and the FRQ same-block rate that justifies not merging
    paper = [dr for _, dr in runs["delegate_on_block"]]
    hits = [r.remote_hit_fraction for r in paper if r.remote_hit_fraction > 0]
    merge_rates = [
        c.get("gpu.frq_merge_opportunities", 0) / c["gpu.frq_enqueued"]
        for c in (r.counters for r in paper) if c.get("gpu.frq_enqueued", 0)
    ]
    rates = {label: amean(samples)
             for label, samples in (("pointer_accuracy", hits),
                                    ("frq_same_block_rate", merge_rates))
             if samples}
    return table(
        "ablations", "Ablations: Delegated Replies design choices", rows,
        label_header="design point",
        data={"benchmarks": points_and_benchmarks(results)[1], **rates},
        note="".join(f"{label}: {rate:.3f}\n" for label, rate in rates.items()),
    )
