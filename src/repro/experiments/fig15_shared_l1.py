"""Figure 15: Delegated Replies on top of inter-core locality optimisations.

Evaluates the shared-L1 schemes DC-L1 [30] and DynEB [29] under both
round-robin and distributed CTA scheduling, then stacks Delegated Replies
on DynEB: locality optimisations do not remove NoC clogging, so DR still
has the memory nodes' reply links to relieve.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.analysis.report import format_table, hmean
from repro.config import (
    CtaScheduler,
    L1Organization,
    baseline_config,
    delegated_replies_config,
)
from repro.experiments.common import ExperimentResult, simulate_configs
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


def run(
    benchmarks: Optional[Sequence[str]] = None,
    cycles: Optional[int] = None,
    warmup: Optional[int] = None,
) -> ExperimentResult:
    """Regenerate Fig. 15, normalised to the private-L1 round-robin base."""
    benchmarks = list(benchmarks or figure_benchmarks(5))
    configs = {"private-rr": baseline_config()}
    for label, org, cta, use_dr in CONFIGS:
        cfg = delegated_replies_config() if use_dr else baseline_config()
        cfg.l1_org = org
        cfg.cta_scheduler = cta
        configs[label] = cfg
    raw = simulate_configs(configs, benchmarks, cycles, warmup)
    rows: List[Tuple[str, dict]] = []
    for gpu in benchmarks:
        values = {
            label: raw[(label, gpu)].gpu_ipc / raw[("private-rr", gpu)].gpu_ipc
            for label, _, _, _ in CONFIGS
        }
        rows.append((gpu, values))
    text = format_table(
        "Fig. 15: shared L1 schemes & CTA scheduling, vs private-RR",
        rows,
        mean="hmean",
        label_header="benchmark",
    )
    dyneb = [r[1]["dyneb-rr"] for r in rows]
    dyneb_dr = [r[1]["dyneb+dr-rr"] for r in rows]
    return ExperimentResult(
        name="fig15_shared_l1",
        rows=rows,
        text=text,
        data={
            "dr_on_dyneb_rr": hmean(dyneb_dr) / hmean(dyneb) if dyneb else 0.0,
        },
    )
