"""CPU stall decomposition: where blocked cycles go, with and without DR.

Companion view to Fig. 12: instead of *how long* CPU packets take, this
breaks down *why* their head flits could not advance, cycle by cycle,
using the stall-attribution taxonomy (:mod:`repro.telemetry.blame`).
Under the baseline, CPU traffic loses most of its blocked cycles to
``credit`` stalls — downstream VCs held by reply worms parked behind full
memory-node injection buffers (the paper's Fig. 1/Fig. 3 clogging loop).
Delegated Replies drains those buffers, so the credit share collapses and
the residue shifts to benign serialization/switch contention.

Stall attribution rides on telemetry, so these are *traced* twins of the
mechanism sweep's jobs: same counters, but a result payload that carries
the stall breakdown, which is why a telemetry-enabled spec has its own
sweep key and shares nothing with Figs. 10-14.  To keep that extra cost
reasonable the default benchmark set is the 4-benchmark representative
subset.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.report import format_table
from repro.config import mechanism_config
from repro.experiments.common import ExperimentResult, simulate
from repro.sweep.jobs import cpu_corunners, default_benchmarks, job
from repro.telemetry.blame import STALL_CLASSES

#: the two mechanisms this decomposition contrasts (RP adds nothing here:
#: its reply path is the baseline's)
_MECHS = ("baseline", "dr")


def run(
    benchmarks: Optional[Sequence[str]] = None,
    n_mixes: int = 1,
    cycles: Optional[int] = None,
    warmup: Optional[int] = None,
) -> ExperimentResult:
    """Decompose CPU stall cycles by class, baseline vs. DR."""
    benchmarks = list(benchmarks or default_benchmarks(subset=4))
    configs = {}
    for mech in _MECHS:
        cfg = configs[mech] = mechanism_config(mech)
        cfg.telemetry.enabled = True          # aggregate-only: no trace file
        cfg.telemetry.mode = "full"           # exact stall attribution
    mixes = [
        (gpu, cpu) for gpu in benchmarks for cpu in cpu_corunners(gpu, n_mixes)
    ]
    raw = simulate(
        {
            (gpu, cpu, mech): job(configs[mech], gpu, cycles, warmup, cpu=cpu)
            for gpu, cpu in mixes
            for mech in _MECHS
        }
    )

    totals: Dict[str, Dict[str, int]] = {
        m: {name: 0 for name in STALL_CLASSES} for m in _MECHS
    }
    per_mix: Dict[str, Dict[str, Dict[str, int]]] = {}
    for gpu, cpu in mixes:
        mix = f"{gpu}/{cpu}"
        per_mix[mix] = {}
        for mech in _MECHS:
            # CPU-class stall cycles of this mix
            stalls = dict(raw[(gpu, cpu, mech)].stall_breakdown.get("CPU", {}))
            per_mix[mix][mech] = stalls
            for name, n in stalls.items():
                totals[mech][name] = totals[mech].get(name, 0) + n

    grand = {m: sum(totals[m].values()) for m in _MECHS}
    rows: List[Tuple[str, dict]] = []
    for name in STALL_CLASSES:
        cells = {}
        for mech in _MECHS:
            cells[f"{mech}_share"] = (
                totals[mech][name] / grand[mech] if grand[mech] else 0.0
            )
        base = totals["baseline"][name]
        if base:
            cells["dr_cycle_ratio"] = totals["dr"][name] / base
        rows.append((name, cells))

    stall_ratio = grand["dr"] / grand["baseline"] if grand["baseline"] else 0.0
    text = format_table(
        "CPU stall decomposition: share of blocked head-flit cycles "
        "by stall class",
        rows,
        mean=None,
        label_header="stall class",
    )
    text += (
        f"total CPU stall cycles: baseline {grand['baseline']}, "
        f"DR {grand['dr']} ({stall_ratio:.3f}x)\n"
    )
    return ExperimentResult(
        name="stall_decomposition",
        rows=rows,
        text=text,
        data={
            "totals": totals,
            "per_mix": per_mix,
            "stall_cycle_ratio": stall_ratio,
        },
    )
