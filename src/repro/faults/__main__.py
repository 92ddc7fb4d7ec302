"""CLI entry point: ``python -m repro.faults`` — the chaos harness.

Subcommands::

    run    simulate one workload mix under a fault plan, verify recovery
    plan   generate a chaos FaultPlan as JSON (edit, replay, share)
    sweep  fault-intensity x mechanism degradation sweep (chaos_sweep)

Examples::

    # drop/corrupt 10% of reply head flits, check nothing is lost
    python -m repro.faults run --mechanism dr --intensity 0.1

    # write a plan, tweak it by hand, replay it exactly
    python -m repro.faults plan --intensity 0.2 --seed 7 --out chaos.json
    python -m repro.faults run --plan chaos.json

    # the full degradation table
    python -m repro.faults sweep --jobs 4 --out chaos_sweep.json

``run`` exits nonzero if any transaction is lost (neither retransmitted
successfully nor answered through the delegated-reply fallback) or if
the post-run quiesce leaves packets in flight — the conservation
property the fault layer guarantees.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.cli import (
    add_batch_option,
    add_format_option,
    add_jobs_option,
    add_mechanism_option,
    add_out_option,
    add_seed_option,
    add_window_options,
    emit,
    run_guarded,
)


def _add_workload_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gpu", default="SC",
                   help="GPU benchmark (default SC, the clogging-heavy one)")
    p.add_argument("--cpu", default=None,
                   help="CPU co-runner (default: the benchmark's first "
                        "Table II mix)")
    add_mechanism_option(p, default="dr")


def _build_plan(args, cfg, cycles: int, warmup: int):
    from repro.faults.plan import FaultPlan, chaos_plan

    if getattr(args, "plan", None):
        with open(args.plan) as fh:
            return FaultPlan.from_dict(json.load(fh))
    return chaos_plan(
        cfg, args.intensity, seed=args.seed or 0,
        warmup=warmup, cycles=cycles,
    )


def cmd_run(args) -> int:
    from repro.config import mechanism_config
    from repro.experiments.common import cpu_corunners
    from repro.faults.controller import quiesce
    from repro.sim.simulator import build_system, run_simulation

    cfg = mechanism_config(args.mechanism)
    if args.seed is not None:
        cfg.seed = args.seed
    cycles = args.cycles if args.cycles is not None else 3000
    warmup = args.warmup if args.warmup is not None else 1000
    plan = _build_plan(args, cfg, cycles, warmup)
    cpu = args.cpu or cpu_corunners(args.gpu, 1)[0]

    # the plan picks the kernel: link-down/up events need the object one
    # (a BackendError here under REPRO_BACKEND=vector)
    system = build_system(cfg, args.gpu, cpu, faults=plan)
    result = run_simulation(
        cfg, args.gpu, cpu, cycles=cycles, warmup=warmup, system=system
    )
    # drain: stop injecting and let every outstanding transaction finish
    # (or exhaust its retries) so conservation is checkable
    leftover = quiesce(system)
    summary = system.faults.summary() if system.faults else {}

    lost = summary.get("lost", 0)
    ok = not (lost or leftover)

    def _render() -> str:
        lines = [
            f"chaos run {args.gpu}/{cpu}/{args.mechanism}: "
            f"{warmup}+{cycles} cycles, plan {plan.plan_hash()} "
            f"({len(plan.events)} events)",
            f"  gpu_ipc {result.gpu_ipc:.4f}  "
            f"cpu p99 {result.cpu_latency_p99:.0f}",
        ]
        for k in ("drops", "corrupts", "discarded", "retransmits",
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

    emit(args.format, {
        "gpu": args.gpu,
        "cpu": cpu,
        "mechanism": args.mechanism,
        "cycles": cycles,
        "warmup": warmup,
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
    from repro.config import mechanism_config

    cfg = mechanism_config(args.mechanism)
    cycles = args.cycles if args.cycles is not None else 3000
    warmup = args.warmup if args.warmup is not None else 1000
    plan = _build_plan(args, cfg, cycles, warmup)
    payload = json.dumps(plan.to_dict(), indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload)
        print(f"wrote {args.out} (plan {plan.plan_hash()}, "
              f"{len(plan.events)} events)")
    else:
        print(payload, end="")
    return 0


def cmd_sweep(args) -> int:
    from repro.experiments import chaos_sweep

    result = chaos_sweep.run(
        benchmarks=args.benchmarks.split(",") if args.benchmarks else None,
        cycles=args.cycles,
        warmup=args.warmup,
        seed=args.seed or 0,
        jobs=args.jobs,
        batch=args.batch,
    )
    payload = {"rows": [[label, cells] for label, cells in result.rows],
               "data": result.data}
    emit(args.format, payload, result.text)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        if args.format != "json":
            print(f"wrote {args.out}")
    return 1 if result.data.get("total_lost") else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults",
        description="deterministic fault injection and recovery checking",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser(
        "run", help="simulate under a fault plan and verify recovery"
    )
    _add_workload_options(run_p)
    add_window_options(run_p)
    add_seed_option(run_p)
    run_p.add_argument("--intensity", type=float, default=0.1,
                       help="chaos intensity in [0,1] (default 0.1)")
    run_p.add_argument("--plan", default=None,
                       help="JSON FaultPlan file (overrides --intensity)")
    add_format_option(run_p)

    plan_p = sub.add_parser("plan", help="emit a chaos FaultPlan as JSON")
    add_mechanism_option(plan_p, default="dr")
    add_window_options(plan_p)
    add_seed_option(plan_p)
    plan_p.add_argument("--intensity", type=float, default=0.1,
                        help="chaos intensity in [0,1] (default 0.1)")
    add_out_option(plan_p, help="plan output path (default: stdout)")

    sweep_p = sub.add_parser(
        "sweep", help="fault-intensity x mechanism degradation sweep"
    )
    sweep_p.add_argument("--benchmarks", default=None,
                         help="comma-separated GPU benchmarks")
    add_window_options(sweep_p)
    add_seed_option(sweep_p)
    add_jobs_option(sweep_p)
    add_batch_option(sweep_p)
    add_out_option(sweep_p, help="write the sweep rows as JSON")
    add_format_option(sweep_p)

    args = parser.parse_args(argv)
    handler = {"run": cmd_run, "plan": cmd_plan, "sweep": cmd_sweep}
    return run_guarded(handler[args.command], args)


if __name__ == "__main__":
    sys.exit(main())
