"""Chaos sweep: graceful degradation under injected network faults.

Not a paper figure — a robustness study of the reproduction itself.  The
same (GPU benchmark x CPU co-runner x mechanism) mixes the evaluation
sweeps are run again under :func:`~repro.faults.plan.chaos_plan` at
increasing intensity: packet loss on the reply links out of
every memory node, plus a mid-run link outage on larger meshes.  The
interesting questions are

* how much throughput survives (``gpu_ipc`` relative to the fault-free
  run of the same mix), and what the CPU tail latency inflates to;
* whether recovery is complete — every dropped flit's transaction must
  be answered by retransmit or, for delegated replies, by the direct-LLC
  fallback, so ``fault_lost`` should stay 0 at any intensity.

Delegated Replies is the mechanism under test: its reply path has more
moving parts (C2C transfers, DNF fallbacks), so this is where silent
loss would hide.  Fault plans hash into the job key, so chaos results
cache independently of the clean sweep.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.analysis.report import amean
from repro.config import mechanism_config
from repro.experiments.common import (
    ExperimentResult, Results, Specs, ratios, table,
)
from repro.faults.plan import chaos_plan
from repro.sweep.jobs import cpu_corunners, default_benchmarks, job

#: fault intensity levels (the probability a packet crossing a memory
#: reply link is damaged); 0.0 is the fault-free anchor
INTENSITIES = (0.0, 0.05, 0.1, 0.2)

#: baseline (plain reply path) vs. the paper's mechanism (delegation,
#: C2C, DNF fallback) — the recovery paths differ, both must conserve
_MECHS = ("baseline", "dr")


def specs(
    benchmarks: Optional[Sequence[str]] = None,
    n_mixes: int = 1,
    cycles: Optional[int] = None,
    warmup: Optional[int] = None,
    intensities: Sequence[float] = INTENSITIES,
    seed: int = 0,
) -> Specs:
    """Every mix x mechanism x intensity, labelled ``(gpu, cpu, mech,
    intensity)``; intensity 0.0 is the fault-free run the others are
    measured against."""
    index: Specs = {}
    for gpu in benchmarks or default_benchmarks(subset=2):
        for cpu in cpu_corunners(gpu, n_mixes):
            for mech in _MECHS:
                cfg = mechanism_config(mech)
                # the clean job states the window the plans are cut to
                clean = job(cfg, gpu, cycles, warmup, cpu)
                for level in intensities:
                    plan = (
                        chaos_plan(
                            cfg, level, seed=seed,
                            warmup=clean.warmup, cycles=clean.cycles,
                        )
                        if level > 0
                        else None
                    )
                    index[(gpu, cpu, mech, level)] = job(
                        cfg, gpu, clean.cycles, clean.warmup, cpu,
                        label=(gpu, cpu, mech, f"i{level:g}"),
                        faults=plan,
                    )
    return index


def tabulate(results: Results) -> ExperimentResult:
    """Degradation and recovery per mechanism and fault intensity."""
    mixes = list(dict.fromkeys((gpu, cpu) for gpu, cpu, _, _ in results))
    intensities = list(dict.fromkeys(level for *_, level in results))
    rows = []
    total_lost = 0
    per_mix: Dict[str, dict] = {}
    for mech in _MECHS:
        for level in intensities:
            runs = [results[(*mix, mech, level)] for mix in mixes]
            clean = [results[(*mix, mech, 0.0)] for mix in mixes]
            for (gpu, cpu), res in zip(mixes, runs):
                per_mix[f"{gpu}/{cpu}/{mech}@{level:g}"] = {
                    "gpu_ipc": res.gpu_ipc,
                    "cpu_latency_p99": res.cpu_latency_p99,
                    "fault_retransmits": res.fault_retransmits,
                    "fault_lost": res.fault_lost,
                }
            lost = sum(res.fault_lost for res in runs)
            total_lost += lost
            rows.append((f"{mech}@{level:g}", {
                "gpu_ipc_vs_clean": amean(ratios(zip(clean, runs))),
                "cpu_p99": amean(res.cpu_latency_p99 for res in runs),
                "retransmits": float(sum(r.fault_retransmits for r in runs)),
                "lost": float(lost),
                "recovery_p99": max([0.0] + [res.fault_recovery_p99
                                             for res in runs]),
            }))

    verdict = (
        "all injected faults recovered (0 transactions lost)"
        if total_lost == 0
        else f"WARNING: {total_lost} transaction(s) lost"
    )
    return table(
        "chaos_sweep",
        "Chaos sweep: throughput + recovery vs. injected fault intensity",
        rows,
        label_header="mech@intensity",
        data={
            "per_mix": per_mix,
            "total_lost": total_lost,
            "intensities": intensities,
        },
        note=verdict + "\n",
    )
