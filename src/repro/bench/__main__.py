"""CLI entry point: ``python -m repro.bench``.

Runs the fixed benchmark configurations and writes ``BENCH_noc.json``:

.. code-block:: json

    {
      "bench": "noc-kernel",
      "configs": {
        "mesh8x8": {"cycles": 12000, "wall_time_s": 0.52,
                    "cycles_per_sec": 23076.9, "packets_delivered": 3800,
                    "flits_delivered": 19000}
      }
    }

Flags:
    ``--cycles N``     override the per-config cycle counts with N
    ``--quick``        quarter-length run (CI smoke test budget)
    ``--configs a b``  run only the named configs
    ``--backend B``    run the fabric configs on another engine
                       (``object`` | ``vector``; default per config)
    ``--jobs N``       worker processes for the sweep-throughput bench
    ``--out PATH``     output path (default ``BENCH_noc.json``)
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.bench.harness import (
    BENCH_CONFIGS,
    run_bench,
    run_bench_isolated,
    run_explore_search,
    run_surrogate_accuracy,
    run_sweep_throughput,
    run_telemetry_overhead,
)
from repro.cli import (
    add_backend_option,
    add_cycles_option,
    add_jobs_option,
    add_out_option,
    backend_error_exit,
)
from repro.sim.engines import BackendError

#: pseudo-config measuring the repro.sweep runner, not a bare fabric
SWEEP_BENCH = "sweep_throughput"
#: pseudo-config measuring enabled-telemetry cost on mesh8x8_dr
TELEMETRY_BENCH = "telemetry_overhead"
#: pseudo-config measuring repro.model accuracy/speed vs the simulator
MODEL_BENCH = "surrogate_accuracy"
#: pseudo-config measuring the repro.explore surrogate-only search loop
EXPLORE_BENCH = "explore_search"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="NoC simulation-kernel throughput benchmarks",
    )
    add_cycles_option(parser, help="override per-config cycle counts")
    parser.add_argument("--quick", action="store_true",
                        help="quarter-length run (CI smoke budget)")
    parser.add_argument("--configs", nargs="+", default=None,
                        choices=sorted(
                            [*BENCH_CONFIGS, SWEEP_BENCH, TELEMETRY_BENCH,
                             MODEL_BENCH, EXPLORE_BENCH]
                        ),
                        help="subset of configs to run")
    add_backend_option(parser, help="simulation engine for the fabric "
                                    "configs (default per config; the "
                                    "pseudo-configs always run object)")
    parser.add_argument("--no-isolate", action="store_true",
                        help="run fabric configs in-process instead of one "
                             "subprocess each (faster, but peak_rss_kb "
                             "numbers then contaminate each other)")
    add_jobs_option(parser,
                    help="worker processes for the sweep-throughput bench")
    add_out_option(parser, default="BENCH_noc.json",
                   help="output JSON path")
    args = parser.parse_args(argv)

    names = args.configs or [
        *BENCH_CONFIGS, SWEEP_BENCH, TELEMETRY_BENCH, MODEL_BENCH,
        EXPLORE_BENCH,
    ]
    results = {}
    for name in names:
        if name == EXPLORE_BENCH:
            res = run_explore_search(
                budget=16 if args.quick else 32,
                population=8 if args.quick else 12,
            )
            results[name] = res.as_dict()
            print(
                f"{name:>12}: {res.extra['evals_per_sec']:.1f} evals/s "
                f"(budget {res.extra['budget']}, frontier "
                f"{res.extra['frontier_size']}, hv edge vs random "
                f"{res.extra['hv_edge']:.2f}x)"
            )
            continue
        if name == MODEL_BENCH:
            res = run_surrogate_accuracy(
                grid="mesh4x4" if args.quick else "fig11",
                jobs=args.jobs,
                cycles=args.cycles,
            )
            results[name] = res.as_dict()
            print(
                f"{name:>12}: {res.extra['grid']} median err "
                f"{res.extra['median_rel_err']:.1%}, spearman "
                f"{res.extra['spearman']:.3f}, "
                f"{res.extra['predict_ms_per_point']:.1f} ms/pt "
                f"({res.extra['speedup']:.0f}x vs simulator)"
            )
            continue
        if name == TELEMETRY_BENCH:
            res = run_telemetry_overhead(
                cycles=args.cycles or (1000 if args.quick else 4000)
            )
            results[name] = res.as_dict()
            ident = "" if res.extra["bit_identical"] else ", NOT bit-identical"
            print(
                f"{name:>12}: {res.cycles_per_sec:>8.1f} cycles/s off, "
                f"{res.extra['enabled_cycles_per_sec']:.1f} light "
                f"({res.extra['overhead_pct']:+.1f}%), "
                f"{res.extra['full_cycles_per_sec']:.1f} full "
                f"({res.extra['full_overhead_pct']:+.1f}%){ident}"
            )
            continue
        if name == SWEEP_BENCH:
            res = run_sweep_throughput(
                workers=args.jobs,
                cycles=150 if args.quick else 300,
                warmup=100 if args.quick else 200,
                probe_jobs=8 if args.quick else 16,
            )
            results[name] = res.as_dict()
            scaling = ", ".join(
                f"{w}w={s:.2f}x" for w, s in res.extra["scaling"].items()
            )
            print(
                f"{name:>12}: {res.extra['jobs_per_sec_1']:.2f} jobs/s @1 "
                f"-> {res.extra['jobs_per_sec_n']:.2f} jobs/s "
                f"@{res.extra['workers']} workers "
                f"(sim {res.extra['sim_speedup']:.2f}x; "
                f"fabric scaling {scaling})"
            )
            continue
        cycles = args.cycles
        if cycles is None and args.quick:
            cycles = max(200, BENCH_CONFIGS[name][1] // 4)
        # one subprocess per config so peak_rss_kb is per-config truth
        runner = run_bench if args.no_isolate else run_bench_isolated
        try:
            res = runner(name, cycles=cycles, backend=args.backend)
        except BackendError as exc:
            return backend_error_exit(exc)
        results[name] = res.as_dict()
        skipped = ""
        if "gpu_core_steps" in res.extra:
            skipped = (
                f", {res.extra['gpu_core_steps']} GPU core-steps run / "
                f"{res.extra['gpu_core_steps_skipped']} slept through"
            )
        print(
            f"{name:>12}: {res.cycles_per_sec:>8.1f} cycles/s "
            f"[{res.extra['backend']}] "
            f"({res.cycles} cycles in {res.wall_time_s:.2f}s, "
            f"{res.packets_delivered} pkts{skipped})"
        )

    payload = {
        "bench": "noc-kernel",
        "configs": results,
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
