"""The ``python -m repro model`` commands.

* ``predict``  — one job (the job block of :mod:`repro.cli`) through the
  surrogate: latencies, throughput, saturation verdict.  Milliseconds,
  no simulator; the window and seed of the job do not enter.
* ``validate`` — a named grid (fig05/fig11/fig16/mesh4x4) through both
  the surrogate and the simulator (cached via ``repro.sweep``), reporting
  per-point relative error, rank correlation and the speed ratio.
  Exit status 1 if the report misses its error/latency budgets.
* ``screen``   — show which points of a grid the hybrid sweep would
  simulate (``repro sweep run --screen surrogate``) without running any.

Examples::

    python -m repro model predict --gpu HS --cpu bodytrack --mechanism dr
    python -m repro model predict --gpu SC --set noc.bandwidth_factor=2
    python -m repro model validate --grid fig11 --jobs 4
    python -m repro model screen --grid fig05 --band 0.35 --format json
"""

from __future__ import annotations

from repro.cli import add_command, add_job_block, add_options, emit, job_from_args
from repro.model.compose import predict
from repro.model.saturation import DEFAULT_BAND, assess, screen
from repro.model.validate import GRIDS, grid_specs, validate


def _cmd_predict(args) -> int:
    spec = job_from_args(args)
    cfg = spec.system_config()
    pred = predict(cfg, spec.gpu, spec.cpu)
    sat = assess(pred)
    payload = pred.to_dict()
    payload["saturation"] = sat.to_dict()

    def render() -> str:
        lines = [f"{spec.gpu}/{spec.cpu} @ {args.mechanism}, "
                 f"{cfg.noc.topology.value} {cfg.noc.bandwidth_factor:g}x"]
        for name in ("cpu_latency_avg", "cpu_latency_p95", "gpu_latency_avg",
                     "gpu_latency_p95", "gpu_ipc", "cpu_ipc",
                     "mem_blocking_rate", "delegated_fraction",
                     "max_rho", "demand_rho"):
            lines.append(f"  {name:28s} {payload[name]:10.3f}")
        lines.append(f"  {'verdict':28s} {sat.verdict}")
        worst = sorted(sat.clogged_links.items(), key=lambda kv: -kv[1])
        for link, rho in worst[:5]:
            lines.append(f"    clogged {link}  rho={rho:.2f}")
        return "\n".join(lines)

    emit(args, payload, render)
    return 0


def _cmd_validate(args) -> int:
    report = validate(
        args.grid,
        cycles=args.cycles,
        warmup=args.warmup,
        jobs=args.jobs,
        progress=None if args.format == "json" else print,
    )

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

    emit(args, report.to_dict(), render)
    return 0 if report.passed else 1


def _cmd_screen(args) -> int:
    decision = screen(
        grid_specs(args.grid, cycles=args.cycles, warmup=args.warmup),
        band=args.band,
    )
    rows = [
        {
            "label": "/".join(spec.label) or spec.describe(),
            "key": spec.key(),
            "demand_rho": round(pred.demand_rho, 3),
            "keep": keep,
        }
        for spec, pred, keep in zip(
            decision.specs, decision.predictions, decision.keep
        )
    ]
    kept = sum(decision.keep)

    def render() -> str:
        lines = [f"== surrogate screen: {args.grid} (band {args.band:g}) =="]
        for r in rows:
            mark = "simulate" if r["keep"] else "skip"
            lines.append(f"  {mark:8s} demand_rho {r['demand_rho']:6.2f}"
                         f"  {r['label']}")
        lines.append(f"  would simulate {kept}/{len(rows)} point(s)")
        return "\n".join(lines)

    emit(args, {
        "grid": args.grid,
        "band": args.band,
        "kept": kept,
        "total": len(rows),
        "points": rows,
    }, render)
    return 0


def register(sub) -> None:
    """Add the ``model`` group's commands to the subparsers action."""
    pred_p = add_command(sub, "predict", _cmd_predict,
                         "one point through the surrogate")
    add_job_block(pred_p)
    add_options(pred_p, "format")

    val_p = add_command(sub, "validate", _cmd_validate,
                        "surrogate vs simulator on a grid")
    scr_p = add_command(sub, "screen", _cmd_screen,
                        "preview the hybrid sweep's keep/skip split")
    for p in (val_p, scr_p):
        p.add_argument("--grid", default="fig11", choices=GRIDS,
                       help="named grid of design points (default: %(default)s)")
        add_options(p, "cycles", "warmup")
    add_options(val_p, "jobs", "out", "format")
    scr_p.add_argument("--band", type=float, default=DEFAULT_BAND,
                       help="guard band below the knee (default %(default)s)")
    add_options(scr_p, "format")
