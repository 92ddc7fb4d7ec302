"""Area and energy study (Sections III-B, IV and VII).

Area: the double-bandwidth mesh against the baseline NoC, and the storage
Delegated Replies adds (core pointers and FRQs) against the 2x-NoC's
extra area.  Energy: Delegated Replies shortens data paths while RP
inflates request traffic; both shorten execution time, which is where
total system energy per instruction moves.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.analysis.area import delegated_replies_overhead, noc_area
from repro.analysis.energy import energy_report
from repro.analysis.report import amean
from repro.config import baseline_config, mechanism_config
from repro.experiments.common import (
    ExperimentResult, Results, Specs, mechanism_groups, mechanism_specs,
    ratios, table,
)
from repro.sweep.jobs import figure_benchmarks


def area_rows() -> List[Tuple[str, dict]]:
    cfg = baseline_config()
    base = noc_area(cfg)
    cfg2 = baseline_config()
    cfg2.noc.bandwidth_factor = 2.0
    double = noc_area(cfg2)
    dr = delegated_replies_overhead(cfg)
    return [
        ("baseline_noc_mm2", {"value": base.total}),
        ("double_bw_noc_mm2", {"value": double.total}),
        ("double_bw_ratio", {"value": double.total / base.total}),
        ("dr_core_pointers_mm2", {"value": dr["core_pointers"]}),
        ("dr_frqs_mm2", {"value": dr["frqs"]}),
        ("dr_total_mm2", {"value": dr["total"]}),
        (
            "dr_vs_double_bw_extra",
            {"value": dr["total"] / (double.total - base.total)},
        ),
    ]


def energy_rows(results: Results) -> Tuple[List[Tuple[str, dict]], dict]:
    mixes = [
        mix for group in mechanism_groups(results).values() for mix in group
    ]
    energy = [
        {mech: energy_report(res, mechanism_config(mech))
         for mech, res in mix.items()}
        for mix in mixes
    ]
    rows = [
        (f"{mech}_{quantity}", {"ratio": amean(ratios(
            ((mix["baseline"], mix[mech]) for mix in source), metric
        ))})
        for quantity, source, metric in (
            ("noc_dynamic_energy", energy, "noc_dynamic_pj_per_inst"),
            ("system_energy", energy, "system_pj_per_inst"),
            ("request_count", mixes, "noc_request_packets"),
        )
        for mech in ("rp", "dr")
    ]
    summary = {"rp": rows[2][1]["ratio"], "dr": rows[3][1]["ratio"]}
    return rows, summary


def specs(
    benchmarks: Optional[Sequence[str]] = None,
    n_mixes: Optional[int] = None,
    cycles: Optional[int] = None,
    warmup: Optional[int] = None,
) -> Specs:
    """The mechanism sweep the energy comparison reads."""
    return mechanism_specs(
        benchmarks or figure_benchmarks(6), n_mixes, cycles, warmup
    )


def tabulate(results: Results) -> ExperimentResult:
    """The area table and the energy comparison."""
    e_rows, summary = energy_rows(results)
    energy = table("area_energy", "Energy vs baseline", e_rows,
                   label_header="quantity")
    result = table("area_energy", "Area", area_rows(), label_header="quantity",
                   data=summary, note=energy.text)
    result.rows += e_rows
    return result
