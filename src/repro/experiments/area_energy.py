"""Area and energy study (Sections III-B, IV and VII).

Area: the double-bandwidth mesh costs 2.5x the baseline NoC (5.76 vs
2.27 mm²) while Delegated Replies adds 0.172 mm² — about 5% of the
2x-NoC's extra area.  Energy: Delegated Replies slightly *reduces* dynamic
NoC energy (shorter data paths) while RP increases it (5.9x request
inflation); both reduce total system energy through shorter execution
time, DR more (-13.6% vs -7.4%).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.analysis.area import delegated_replies_overhead, noc_area
from repro.analysis.energy import energy_report
from repro.analysis.report import amean, format_table
from repro.config import baseline_config, mechanism_config
from repro.experiments.common import ExperimentResult, mechanism_sweep
from repro.sweep.jobs import cpu_corunners, default_benchmarks


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


def energy_rows(
    benchmarks: Sequence[str],
    n_mixes: int,
    cycles: int,
    warmup: int,
) -> Tuple[List[Tuple[str, dict]], dict]:
    sweep = mechanism_sweep(benchmarks, n_mixes, cycles, warmup)
    noc_ratios = {"rp": [], "dr": []}
    sys_ratios = {"rp": [], "dr": []}
    req_ratios = {"rp": [], "dr": []}
    for gpu in benchmarks:
        for cpu in cpu_corunners(gpu, n_mixes):
            base = sweep[(gpu, cpu, "baseline")]
            base_e = energy_report(base, mechanism_config("baseline"))
            for mech in ("rp", "dr"):
                res = sweep[(gpu, cpu, mech)]
                e = energy_report(res, mechanism_config(mech))
                if base_e.noc_dynamic_pj_per_inst > 0:
                    noc_ratios[mech].append(
                        e.noc_dynamic_pj_per_inst / base_e.noc_dynamic_pj_per_inst
                    )
                sys_ratios[mech].append(
                    e.system_pj_per_inst / base_e.system_pj_per_inst
                )
                if base.noc_request_packets > 0:
                    req_ratios[mech].append(
                        res.noc_request_packets / base.noc_request_packets
                    )
    rows = [
        ("rp_noc_dynamic_energy", {"ratio": amean(noc_ratios["rp"])}),
        ("dr_noc_dynamic_energy", {"ratio": amean(noc_ratios["dr"])}),
        ("rp_system_energy", {"ratio": amean(sys_ratios["rp"])}),
        ("dr_system_energy", {"ratio": amean(sys_ratios["dr"])}),
        ("rp_request_count", {"ratio": amean(req_ratios["rp"])}),
        ("dr_request_count", {"ratio": amean(req_ratios["dr"])}),
    ]
    summary = {k: amean(v) for k, v in sys_ratios.items()}
    return rows, summary


def run(
    benchmarks: Optional[Sequence[str]] = None,
    n_mixes: int = 1,
    cycles: Optional[int] = None,
    warmup: Optional[int] = None,
) -> ExperimentResult:
    """Regenerate the area table and the energy comparison."""
    benchmarks = list(benchmarks or default_benchmarks(subset=5))
    a_rows = area_rows()
    e_rows, summary = energy_rows(benchmarks, n_mixes, cycles, warmup)
    text = format_table(
        "Area (paper: 2.27 / 5.76 / 2.5x / 0.08 / 0.092 / 0.172 mm2 / ~5%)",
        a_rows,
        mean=None,
        label_header="quantity",
    ) + format_table(
        "Energy vs baseline (paper: RP noc +9.4%, DR noc -1.1%; "
        "system RP -7.4%, DR -13.6%; RP requests 5.9x)",
        e_rows,
        mean=None,
        label_header="quantity",
    )
    return ExperimentResult(
        name="area_energy",
        description="DSENT/CACTI-style area and energy comparison",
        rows=a_rows + e_rows,
        text=text,
        data=summary,
    )
