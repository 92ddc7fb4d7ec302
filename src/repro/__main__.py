"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list``                     — benchmarks, mixes and experiments
* ``run GPU [CPU]``            — simulate one workload mix
* ``experiment NAME``          — regenerate one paper figure/table
* ``area``                     — print the area model's numbers

Examples::

    python -m repro run HS bodytrack --mechanism dr --cycles 3000
    python -m repro experiment fig10_gpu_perf
    python -m repro list
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.cli import add_mechanism_option, add_window_options, run_guarded


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
    from repro.config import mechanism_config
    from repro.sim.simulator import run_simulation

    cfg = mechanism_config(args.mechanism)
    result = run_simulation(
        cfg, args.gpu, args.cpu, cycles=args.cycles, warmup=args.warmup
    )
    print(f"workload:            {args.gpu}"
          + (f" + {args.cpu}" if args.cpu else ""))
    print(f"mechanism:           {args.mechanism}")
    print(f"gpu_ipc:             {result.gpu_ipc:.4f}")
    print(f"gpu_data_rate:       {result.gpu_data_rate:.4f} flits/cyc/core")
    print(f"mem_blocking_rate:   {result.mem_blocking_rate:.3f}")
    if args.cpu:
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
    kwargs = {}
    if args.cycles is not None:
        kwargs["cycles"] = args.cycles
    if args.warmup is not None:
        kwargs["warmup"] = args.warmup
    if args.benchmarks:
        kwargs["benchmarks"] = args.benchmarks.split(",")
    result = module.run(**kwargs)
    print(result.text)
    return 0


def _cmd_area(_args) -> int:
    from repro.analysis.area import delegated_replies_overhead, noc_area
    from repro.config import baseline_config

    cfg = baseline_config()
    base = noc_area(cfg)
    cfg2 = baseline_config()
    cfg2.noc.bandwidth_factor = 2.0
    double = noc_area(cfg2)
    dr = delegated_replies_overhead(cfg)
    print(f"baseline NoC:      {base.total:.2f} mm2  {base.as_dict()}")
    print(f"2x-bandwidth NoC:  {double.total:.2f} mm2 "
          f"({double.total / base.total:.2f}x)")
    print(f"Delegated Replies: {dr['total']:.3f} mm2 "
          f"(pointers {dr['core_pointers']:.3f} + FRQs {dr['frqs']:.3f})")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Delegated Replies (HPCA 2022) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list benchmarks and experiments")

    run_p = sub.add_parser("run", help="simulate one workload mix")
    run_p.add_argument("gpu", help="GPU benchmark (Table II name)")
    run_p.add_argument("cpu", nargs="?", default=None,
                       help="CPU benchmark (Parsec name)")
    add_mechanism_option(run_p)
    add_window_options(run_p, cycles=3000, warmup=2000)

    exp_p = sub.add_parser("experiment", help="regenerate a paper figure")
    exp_p.add_argument("name", help="experiment module, e.g. fig10_gpu_perf")
    add_window_options(exp_p)
    exp_p.add_argument("--benchmarks", default=None,
                       help="comma-separated GPU benchmark subset")

    sub.add_parser("area", help="print the area model's numbers")

    args = parser.parse_args(argv)
    handler = {
        "list": _cmd_list,
        "run": _cmd_run,
        "experiment": _cmd_experiment,
        "area": _cmd_area,
    }[args.command]
    return run_guarded(handler, args)


if __name__ == "__main__":
    sys.exit(main())
