"""Chaos sweep: graceful degradation under injected network faults.

Not a paper figure — a robustness study of the reproduction itself.  The
same (GPU benchmark x CPU co-runner x mechanism) mixes the evaluation
sweeps are run again under :func:`~repro.faults.plan.chaos_plan` at
increasing intensity: flit loss/corruption on the reply links out of
every memory node, plus a mid-run link outage on larger meshes.  The
interesting questions are

* how much throughput survives (``gpu_ipc`` relative to the fault-free
  run of the same mix), and what the CPU tail latency inflates to;
* whether recovery is complete — every dropped flit's transaction must
  be answered by retransmit or, for delegated replies, by the direct-LLC
  fallback, so ``fault_lost`` should stay 0 at any intensity.

Delegated Replies is the mechanism under test: its reply path has more
moving parts (C2C transfers, DNF fallbacks), so this is where silent
loss would hide.  Execution goes through :mod:`repro.sweep` — fault
plans hash into the job key, so chaos results cache independently of the
clean sweep.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.report import format_table
from repro.config import mechanism_config
from repro.experiments.common import ExperimentResult
from repro.sweep.jobs import cpu_corunners, default_benchmarks, job

#: fault intensity levels (fraction of head flits sampled for
#: drop/corrupt on memory reply links); 0.0 is the fault-free anchor
INTENSITIES = (0.0, 0.05, 0.1, 0.2)

#: baseline (plain reply path) vs. the paper's mechanism (delegation,
#: C2C, DNF fallback) — the recovery paths differ, both must conserve
_MECHS = ("baseline", "dr")


def run(
    benchmarks: Optional[Sequence[str]] = None,
    n_mixes: int = 1,
    cycles: Optional[int] = None,
    warmup: Optional[int] = None,
    intensities: Sequence[float] = INTENSITIES,
    seed: int = 0,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Sweep fault intensity x mechanism; report degradation + recovery."""
    from repro.faults.plan import chaos_plan
    from repro.sweep import JobSpec, run_sweep

    benchmarks = list(benchmarks or default_benchmarks(subset=2))

    index: Dict[Tuple[str, str, str, float], JobSpec] = {}
    for gpu in benchmarks:
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

    results = run_sweep(list(index.values()), jobs=jobs)

    rows: List[Tuple[str, dict]] = []
    total_lost = 0
    per_mix: Dict[str, dict] = {}
    for mech in _MECHS:
        for level in intensities:
            ipc_ratios: List[float] = []
            p99s: List[float] = []
            retrans = lost = 0
            rec_p99 = 0.0
            for gpu in benchmarks:
                for cpu in cpu_corunners(gpu, n_mixes):
                    res = results[index[(gpu, cpu, mech, level)].key()]
                    clean = results[index[(gpu, cpu, mech, 0.0)].key()]
                    if clean.gpu_ipc > 0:
                        ipc_ratios.append(res.gpu_ipc / clean.gpu_ipc)
                    p99s.append(res.cpu_latency_p99)
                    retrans += res.fault_retransmits
                    lost += res.fault_lost
                    rec_p99 = max(rec_p99, res.fault_recovery_p99)
                    per_mix[f"{gpu}/{cpu}/{mech}@{level:g}"] = {
                        "gpu_ipc": res.gpu_ipc,
                        "cpu_latency_p99": res.cpu_latency_p99,
                        "fault_retransmits": res.fault_retransmits,
                        "fault_lost": res.fault_lost,
                    }
            total_lost += lost
            rows.append((
                f"{mech}@{level:g}",
                {
                    "gpu_ipc_vs_clean": (
                        sum(ipc_ratios) / len(ipc_ratios)
                        if ipc_ratios else 0.0
                    ),
                    "cpu_p99": sum(p99s) / len(p99s) if p99s else 0.0,
                    "retransmits": float(retrans),
                    "lost": float(lost),
                    "recovery_p99": rec_p99,
                },
            ))

    text = format_table(
        "Chaos sweep: throughput + recovery vs. injected fault intensity",
        rows,
        mean=None,
        label_header="mech@intensity",
    )
    verdict = (
        "all injected faults recovered (0 transactions lost)"
        if total_lost == 0
        else f"WARNING: {total_lost} transaction(s) lost"
    )
    text += verdict + "\n"
    return ExperimentResult(
        name="chaos_sweep",
        rows=rows,
        text=text,
        data={
            "per_mix": per_mix,
            "total_lost": total_lost,
            "intensities": list(intensities),
        },
    )
