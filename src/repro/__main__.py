"""Command-line interface: ``python -m repro <command>``, the only one.

Commands:

* ``list``                     — benchmarks, mixes and experiments
* ``run --gpu GPU``            — simulate one workload mix
* ``experiment NAME``          — regenerate one paper figure/table and
  judge it against its rows of :mod:`repro.experiments.claims`
* ``area``                     — print the area model's numbers

and one group per subsystem, each registered by the ``cli`` module beside
the code it drives and imported only when it is the first argument:

* ``sweep {list,run,status,clean}``
* ``telemetry {trace,report,hist,timeline,events,blame}``
* ``faults {run,plan,sweep}``

Examples::

    python -m repro run --gpu HS --cpu bodytrack --mechanism dr --cycles 3000
    python -m repro run --gpu SC --set noc.topology=crossbar
    python -m repro experiment fig10_gpu_perf
    python -m repro sweep run --jobs 4

What a command line means — the job block, the shared options, the
output formats, the error contract — is :mod:`repro.cli`; the library
door is :mod:`repro.api`.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from typing import List, Optional

from repro.cli import (
    add_command,
    add_job_block,
    add_options,
    job_from_args,
    run_guarded,
)

#: group name -> its one-line help; ``repro.<name>.cli.register`` fills it
GROUPS = {
    "sweep": "parallel, cached, resumable experiment sweeps",
    "telemetry": "per-packet tracing, latency histograms and "
                 "clogging-event reports",
    "faults": "deterministic fault injection and recovery checking",
}


def _experiments() -> dict:
    """``{name: module}`` of the figure modules, in paper order."""
    from repro.experiments import ALL_EXPERIMENTS

    return {m.__name__.rsplit(".", 1)[-1]: m for m in ALL_EXPERIMENTS}


def _cmd_list(_args) -> int:
    from repro.workloads import CPU_BENCHMARK_NAMES, GPU_BENCHMARK_NAMES, TABLE_II

    print("GPU benchmarks (Table II):")
    for name in GPU_BENCHMARK_NAMES:
        print(f"  {name:6s} co-runs with {', '.join(TABLE_II[name])}")
    print("\nCPU benchmarks (Parsec):")
    print("  " + ", ".join(CPU_BENCHMARK_NAMES))
    print("\nExperiments:")
    for name, module in _experiments().items():
        doc = (module.__doc__ or "").strip().splitlines()[0]
        print(f"  {name:22s} {doc}")
    return 0


def _cmd_run(args) -> int:
    spec = job_from_args(args)
    result = spec.run()
    print(f"workload:            {spec.gpu} + {spec.cpu}")
    print(f"mechanism:           {args.mechanism}")
    print(f"gpu_ipc:             {result.gpu_ipc:.4f}")
    print(f"gpu_data_rate:       {result.gpu_data_rate:.4f} flits/cyc/core")
    print(f"mem_blocking_rate:   {result.mem_blocking_rate:.3f}")
    print(f"cpu_ipc:             {result.cpu_ipc:.4f}")
    print(f"cpu_latency_avg:     {result.cpu_latency_avg:.1f} cycles")
    if args.mechanism == "dr":
        bd = result.miss_breakdown()
        print(f"delegated_fraction:  {result.delegated_fraction:.3f}")
        print(f"miss breakdown:      llc={bd['llc']:.2f} "
              f"remote_hit={bd['remote_hit']:.2f} "
              f"remote_miss={bd['remote_miss']:.2f}")
    return 0


def _cmd_experiment(args) -> int:
    module = _experiments().get(args.name)
    if module is None:
        raise KeyError(
            f"unknown experiment {args.name!r}; see `python -m repro list`"
        )
    from repro.experiments import run
    from repro.experiments.claims import judge

    result, = run(
        [module], cycles=args.cycles, warmup=args.warmup,
        benchmarks=args.benchmarks.split(",") if args.benchmarks else None,
    )
    print(result.text)

    for verdict in judge(result):
        print(verdict)
    return 0


def _cmd_area(_args) -> int:
    from repro.analysis.report import format_table
    from repro.experiments.area_energy import area_rows

    print(format_table("Area", area_rows(), mean=None, label_header="quantity"),
          end="")
    return 0


def build_parser(group: Optional[str] = None) -> argparse.ArgumentParser:
    """The command tree.  A group's subcommands exist only when ``group``
    names it, so ``repro list`` never imports what ``repro sweep`` needs."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Delegated Replies (HPCA 2022) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    add_command(sub, "list", _cmd_list, "list benchmarks and experiments")
    add_job_block(add_command(
        sub, "run", _cmd_run,
        "simulate one workload mix (built-in window 2000+3000 cycles)"))
    exp_p = add_command(sub, "experiment", _cmd_experiment,
                        "regenerate a paper figure")
    exp_p.add_argument("name", help="experiment module, e.g. fig10_gpu_perf")
    add_options(exp_p, "cycles", "warmup", "benchmarks")
    add_command(sub, "area", _cmd_area, "print the area model's numbers")

    for name, help_text in GROUPS.items():
        group_p = sub.add_parser(name, help=help_text, description=help_text)
        if name == group:
            importlib.import_module(f"repro.{name}.cli").register(
                group_p.add_subparsers(dest="subcommand", required=True)
            )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return run_guarded(args.handler, args)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. `... telemetry report trace | head`
        sys.exit(0)
