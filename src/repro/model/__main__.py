"""CLI entry point: ``python -m repro.model``.

Subcommands:

* ``predict``  — one (config, GPU, CPU) point through the surrogate:
  latencies, throughput, saturation verdict.  Milliseconds, no simulator.
* ``validate`` — a named grid (fig05/fig11/fig16/mesh4x4) through both
  the surrogate and the simulator (cached via ``repro.sweep``), reporting
  per-point relative error, rank correlation and the speed ratio.
  Exit status 1 if the report misses its error/latency budgets.
* ``screen``   — show which points of a grid the hybrid sweep would
  simulate (``repro.sweep run --screen surrogate``) without running any.

Examples::

    python -m repro.model predict --gpu HS --cpu bodytrack --mechanism dr
    python -m repro.model validate --grid fig11 --jobs 4
    python -m repro.model screen --grid fig05 --band 0.35 --format json
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.cli import (
    add_config_option,
    add_format_option,
    add_jobs_option,
    add_mechanism_option,
    add_out_option,
    add_window_options,
    emit,
    run_guarded,
    set_config_options,
)
from repro.model.compose import predict
from repro.model.saturation import DEFAULT_BAND, assess, keep_mask
from repro.model.validate import GRIDS, grid_specs, predictions_for, validate


def _cmd_predict(args) -> int:
    from repro.config import mechanism_config

    cfg = set_config_options(mechanism_config(args.mechanism), args)
    pred = predict(cfg.validate(), args.gpu, args.cpu)
    sat = assess(pred)
    payload = pred.to_dict()
    payload["saturation"] = sat.to_dict()
    if args.format == "json":
        emit("json", payload, "")
        return 0
    print(f"{args.gpu}" + (f"/{args.cpu}" if args.cpu else "")
          + f" @ {args.mechanism}, {cfg.noc.topology.value}"
          + f" {cfg.noc.bandwidth_factor:g}x")
    for name in ("cpu_latency_avg", "cpu_latency_p95", "gpu_latency_avg",
                 "gpu_latency_p95", "gpu_ipc", "cpu_ipc",
                 "mem_blocking_rate", "delegated_fraction",
                 "max_rho", "demand_rho"):
        print(f"  {name:28s} {payload[name]:10.3f}")
    print(f"  {'verdict':28s} {sat.verdict}")
    if sat.clogged_links:
        worst = sorted(sat.clogged_links.items(), key=lambda kv: -kv[1])
        for link, rho in worst[:5]:
            print(f"    clogged {link}  rho={rho:.2f}")
    return 0


def _cmd_validate(args) -> int:
    report = validate(
        args.grid,
        cycles=args.cycles,
        warmup=args.warmup,
        jobs=args.jobs,
        progress=None if args.format == "json" else print,
    )
    payload = report.to_dict()
    if args.out:
        import json as _json

        with open(args.out, "w") as fh:
            _json.dump(payload, fh, indent=2)
            fh.write("\n")

    def render() -> str:
        lines = [f"== surrogate validation: {report.grid} "
                 f"({report.metric}) =="]
        for p in sorted(report.points, key=lambda p: p.simulated):
            lines.append(
                f"  {p.label:36s} sim {p.simulated:8.1f} "
                f"pred {p.predicted:8.1f} err {p.rel_err:6.1%}"
            )
        lines.append(
            f"  {report.n_points} point(s): median err "
            f"{report.median_rel_err:.1%}, p90 {report.p90_rel_err:.1%}, "
            f"spearman {report.spearman:.3f}"
        )
        lines.append(
            f"  surrogate {report.predict_ms_per_point:.1f} ms/pt vs "
            f"simulator {report.sim_s_per_point:.1f} s/pt "
            f"({report.speedup:.0f}x); "
            + ("PASS" if report.passed else "FAIL")
        )
        return "\n".join(lines)

    emit(args.format, payload, render)
    return 0 if report.passed else 1


def _cmd_screen(args) -> int:
    specs = grid_specs(args.grid, cycles=args.cycles, warmup=args.warmup)
    preds = predictions_for(specs)
    mask = keep_mask(preds, band=args.band)
    rows = []
    for spec, pred, keep in zip(specs, preds, mask):
        rows.append({
            "label": "/".join(spec.label) or spec.describe(),
            "key": spec.key(),
            "demand_rho": round(pred.demand_rho, 3),
            "keep": keep,
        })
    kept = sum(mask)

    def render() -> str:
        lines = [f"== surrogate screen: {args.grid} (band {args.band:g}) =="]
        for r in rows:
            mark = "simulate" if r["keep"] else "skip"
            lines.append(f"  {mark:8s} demand_rho {r['demand_rho']:6.2f}"
                         f"  {r['label']}")
        lines.append(f"  would simulate {kept}/{len(rows)} point(s)")
        return "\n".join(lines)

    emit(args.format, {
        "grid": args.grid,
        "band": args.band,
        "kept": kept,
        "total": len(rows),
        "points": rows,
    }, render)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.model",
        description="analytical surrogate performance model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pred_p = sub.add_parser("predict", help="one point through the surrogate")
    pred_p.add_argument("--gpu", required=True,
                        help="GPU benchmark name (Table II)")
    pred_p.add_argument("--cpu", default=None,
                        help="CPU co-runner benchmark name")
    add_mechanism_option(pred_p)
    add_config_option(pred_p, "noc.topology", help="NoC topology")
    add_config_option(pred_p, "noc.bandwidth_factor",
                      help="NoC link bandwidth multiplier")
    add_format_option(pred_p)

    val_p = sub.add_parser("validate",
                           help="surrogate vs simulator on a grid")
    val_p.add_argument("--grid", default="fig11", choices=GRIDS)
    add_window_options(val_p)
    add_jobs_option(val_p)
    add_out_option(val_p, help="also write the JSON report here")
    add_format_option(val_p)

    scr_p = sub.add_parser("screen",
                           help="preview the hybrid sweep's keep/skip split")
    scr_p.add_argument("--grid", default="fig11", choices=GRIDS)
    scr_p.add_argument("--band", type=float, default=DEFAULT_BAND,
                       help="guard band below the knee (default %(default)s)")
    add_window_options(scr_p)
    add_format_option(scr_p)

    args = parser.parse_args(argv)
    handler = {
        "predict": _cmd_predict,
        "validate": _cmd_validate,
        "screen": _cmd_screen,
    }[args.command]
    return run_guarded(handler, args)


if __name__ == "__main__":
    sys.exit(main())
