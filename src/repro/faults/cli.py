"""The ``python -m repro faults`` commands — the chaos harness.

::

    run    simulate one workload mix under a fault plan, verify recovery
    plan   generate a chaos FaultPlan as JSON (edit, replay, share)
    sweep  fault-intensity x mechanism degradation sweep (chaos_sweep)

Examples::

    # damage 10% of the packets on memory reply links, check nothing is lost
    python -m repro faults run --mechanism dr --intensity 0.1

    # write a plan, tweak it by hand, replay it exactly
    python -m repro faults plan --intensity 0.2 --seed 7 --out chaos.json
    python -m repro faults run --plan chaos.json

    # the full degradation table
    python -m repro faults sweep --jobs 4 --out chaos_sweep.json

``run`` exits nonzero if any transaction is lost (neither retransmitted
successfully nor answered through the delegated-reply fallback) or if
the post-run quiesce leaves packets in flight — the conservation
property the fault layer guarantees.  ``run`` and ``plan`` take the job
block (:mod:`repro.cli`); the built-in window is 1000+3000 cycles.
"""

from __future__ import annotations

import json
import sys

from repro.cli import add_command, add_job_block, add_options, emit, job_from_args
from repro.faults.controller import quiesce
from repro.faults.plan import FaultPlan, chaos_plan
from repro.sweep.jobs import job


def _job_and_plan(args):
    """The job block's (fault-free) spec and the fault plan for it:
    ``--plan``'s file, else a chaos plan cut to its config and window."""
    spec = job_from_args(args, cycles=3000, warmup=1000)
    if getattr(args, "plan", None):
        with open(args.plan) as fh:
            return spec, FaultPlan.from_dict(json.load(fh))
    return spec, chaos_plan(
        spec.system_config(), args.intensity, seed=args.seed or 0,
        warmup=spec.warmup, cycles=spec.cycles,
    )


def _chaos_job(args):
    """The job ``faults run`` executes: the job block's, its fault plan
    inside the spec (and so inside its key and its choice of kernel)."""
    clean, plan = _job_and_plan(args)
    # the plan picks the kernel: link-down/up events need the object one
    # (a BackendError here under REPRO_BACKEND=vector)
    return job(
        clean.system_config(), clean.gpu, clean.cycles, clean.warmup,
        clean.cpu, faults=plan,
    )


def cmd_run(args) -> int:
    spec = _chaos_job(args)
    plan = spec.fault_plan()
    system = spec.build()
    result = spec.run(system)
    # drain: stop injecting and let every outstanding transaction finish
    # (or exhaust its retries) so conservation is checkable
    leftover = quiesce(system)
    summary = system.faults.summary() if system.faults else {}

    lost = summary.get("lost", 0)
    ok = not (lost or leftover)

    def _render() -> str:
        lines = [
            f"chaos run {spec.gpu}/{spec.cpu}/{args.mechanism}: "
            f"{spec.warmup}+{spec.cycles} cycles, plan {plan.plan_hash()} "
            f"({len(plan.events)} events)",
            f"  gpu_ipc {result.gpu_ipc:.4f}  "
            f"cpu p99 {result.cpu_latency_p99:.0f}",
        ]
        for k in ("drops", "discarded", "retransmits",
                  "fallback_dnfs", "recovered", "lost", "watchdog_fires",
                  "links_downed"):
            lines.append(f"  {k:>14}: {summary.get(k, 0)}")
        lines.append(f"  recovery p50/max: {summary.get('recovery_p50', 0)}/"
                     f"{summary.get('recovery_max', 0)} cycles")
        if ok:
            lines.append(
                "OK: every injected fault recovered; network drained clean"
            )
        return "\n".join(lines)

    emit(args, {
        "gpu": spec.gpu,
        "cpu": spec.cpu,
        "mechanism": args.mechanism,
        "cycles": spec.cycles,
        "warmup": spec.warmup,
        "plan_hash": plan.plan_hash(),
        "plan_events": len(plan.events),
        "gpu_ipc": result.gpu_ipc,
        "cpu_latency_p99": result.cpu_latency_p99,
        "faults": dict(summary),
        "leftover": leftover,
        "ok": ok,
    }, _render)
    if not ok:
        print(f"FAIL: {lost} transaction(s) lost, "
              f"{leftover} flit(s)/entry(ies) stuck after quiesce",
              file=sys.stderr)
        return 1
    return 0


def cmd_plan(args) -> int:
    _spec, plan = _job_and_plan(args)
    summary = f"plan {plan.plan_hash()}, {len(plan.events)} events"
    emit(args, plan.to_dict(),
         summary if args.out else json.dumps(plan.to_dict(), indent=2))
    return 0


def cmd_sweep(args) -> int:
    from repro.experiments import chaos_sweep, run

    result, = run(
        [chaos_sweep], jobs=args.jobs, cycles=args.cycles,
        warmup=args.warmup, seed=args.seed or 0,
        benchmarks=args.benchmarks.split(",") if args.benchmarks else None,
    )
    emit(args, {"rows": [[label, cells] for label, cells in result.rows],
                "data": result.data}, result.text)
    return 1 if result.data.get("total_lost") else 0


def register(sub) -> None:
    """Add the ``faults`` group's commands to the subparsers action."""
    intensity = dict(type=float, default=0.1,
                     help="chaos intensity in [0,1] (default 0.1)")

    run_p = add_command(sub, "run", cmd_run,
                        "simulate under a fault plan and verify recovery")
    add_job_block(run_p, gpu="SC", mechanism="dr")
    run_p.add_argument("--intensity", **intensity)
    run_p.add_argument("--plan", default=None,
                       help="JSON FaultPlan file (overrides --intensity)")
    add_options(run_p, "format")

    plan_p = add_command(sub, "plan", cmd_plan,
                         "emit a chaos FaultPlan as JSON")
    add_job_block(plan_p, gpu="SC", mechanism="dr")
    plan_p.add_argument("--intensity", **intensity)
    add_options(plan_p, "out",
                out=dict(help="plan output path (default: stdout)"))

    sweep_p = add_command(sub, "sweep", cmd_sweep,
                          "fault-intensity x mechanism degradation sweep")
    add_options(sweep_p, "benchmarks", "cycles", "warmup", "seed", "jobs",
                "out", "format",
                seed=dict(help="fault-plan RNG seed (default: 0)"))
