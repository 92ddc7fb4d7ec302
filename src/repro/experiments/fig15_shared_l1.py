"""Figure 15: Delegated Replies on top of inter-core locality optimisations.

Evaluates the shared-L1 schemes DC-L1 [30] and DynEB [29] under both
round-robin and distributed CTA scheduling, then stacks Delegated Replies
on DynEB: locality optimisations do not remove NoC clogging, so DR still
has the memory nodes' reply links to relieve.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.report import hmean
from repro.config import (
    CtaScheduler,
    L1Organization,
    baseline_config,
    delegated_replies_config,
)
from repro.experiments.common import (
    ExperimentResult, Results, Specs, config_specs, over_reference, ratio,
    table,
)
from repro.sweep.jobs import figure_benchmarks

#: evaluated configurations: (label, l1 organisation, CTA policy, DR?)
CONFIGS = (
    ("dc_l1-rr", L1Organization.DC_L1, CtaScheduler.ROUND_ROBIN, False),
    ("dyneb-rr", L1Organization.DYNEB, CtaScheduler.ROUND_ROBIN, False),
    ("dyneb+dr-rr", L1Organization.DYNEB, CtaScheduler.ROUND_ROBIN, True),
    ("dc_l1-dist", L1Organization.DC_L1, CtaScheduler.DISTRIBUTED, False),
    ("dyneb-dist", L1Organization.DYNEB, CtaScheduler.DISTRIBUTED, False),
    ("dyneb+dr-dist", L1Organization.DYNEB, CtaScheduler.DISTRIBUTED, True),
)


def specs(
    benchmarks: Optional[Sequence[str]] = None,
    cycles: Optional[int] = None,
    warmup: Optional[int] = None,
) -> Specs:
    """The private-L1 round-robin base and every configuration on every
    benchmark."""
    configs = {"private-rr": baseline_config()}
    for label, org, cta, use_dr in CONFIGS:
        cfg = delegated_replies_config() if use_dr else baseline_config()
        configs[label] = cfg.update({"l1_org": org, "cta_scheduler": cta})
    return config_specs(configs, benchmarks or figure_benchmarks(5),
                        cycles, warmup)


def tabulate(results: Results) -> ExperimentResult:
    """Fig. 15, normalised to the private-L1 round-robin base."""
    rows = over_reference(
        results, "private-rr", {label: label for label, *_ in CONFIGS}
    )
    return table(
        "fig15_shared_l1",
        "Fig. 15: shared L1 schemes & CTA scheduling, vs private-RR",
        rows,
        "hmean",
        data={"dr_on_dyneb_rr": ratio(
            hmean(c["dyneb+dr-rr"] for _, c in rows),
            hmean(c["dyneb-rr"] for _, c in rows),
        )},
    )
