"""The ``python -m repro telemetry`` commands.

::

    trace     run a traced simulation and write a JSONL trace file
    report    headline view: events, per-class latency percentiles, episodes
    hist      ASCII latency histograms (filter with --net / --cls)
    timeline  per-window link-occupancy / injection-rate timeline
    events    clogging-episode table
    blame     stall-attribution matrix, mesh heatmap, episode root causes

Example — produce and inspect a trace of the paper's clogging scenario::

    python -m repro telemetry trace --out /tmp/sc.jsonl --gpu SC
    python -m repro telemetry report /tmp/sc.jsonl
    python -m repro telemetry events /tmp/sc.jsonl

``trace`` takes the job block (:mod:`repro.cli`); the telemetry knobs are
config fields like any other: ``--set telemetry.sample_rate=0.5``,
``--set telemetry.flight_dir=DIR`` (flight-recorder dumps — small
traces every reader command takes — written when a clogging episode
opens or a fault fires).
"""

from __future__ import annotations

from repro.cli import add_command, add_job_block, add_options, emit, job_from_args
from repro.telemetry import report


def cmd_trace(args) -> int:
    # full mode (exact stall attribution, what `blame` reads) where the
    # config default is light; `--set telemetry.mode=light` wins
    spec = job_from_args(args, cycles=2000, warmup=1000, preset={"telemetry": {
        "enabled": True, "mode": "full", "trace_path": args.out,
    }})
    cfg = spec.system_config()
    result = spec.run()
    print(
        f"traced {spec.gpu}/{spec.cpu}/{args.mechanism}: "
        f"{spec.warmup}+{spec.cycles} cycles -> {args.out}"
    )
    print(
        f"  cpu latency: avg {result.cpu_latency_avg:.1f}  "
        f"p50 {result.cpu_latency_p50:.0f}  "
        f"p95 {result.cpu_latency_p95:.0f}  "
        f"p99 {result.cpu_latency_p99:.0f}"
    )
    print(
        f"  mem blocking rate {result.mem_blocking_rate:.3f}  "
        f"delegated fraction {result.delegated_fraction:.3f}"
    )
    if cfg.telemetry.flight_dir:
        dumps = int(result.telemetry_metrics.get("flight.dumps", 0))
        print(f"  flight dumps: {dumps} -> {cfg.telemetry.flight_dir}")
    return 0


def cmd_read(args) -> int:
    """The five reader commands: load the trace, print one view of it."""
    # a broken trace gets a one-line diagnosis, not a traceback: missing
    # file (OSError), garbled JSON or text (ValueError covers
    # json.JSONDecodeError and UnicodeDecodeError)
    try:
        summary = report.load_summary(args.trace)
    except OSError as exc:
        raise OSError(
            f"cannot read trace {args.trace!r}: {exc.strerror or exc}"
        ) from None
    except ValueError as exc:
        raise ValueError(
            f"{args.trace!r} is not a readable trace "
            f"(garbled or not a trace file): {exc}"
        ) from None
    if summary.records == 0:
        raise ValueError(f"trace {args.trace!r} is empty (no records)")
    view = {"net": args.net, "cls": args.cls} if args.subcommand == "hist" else {}
    payload = getattr(report, f"payload_{args.subcommand}")(summary, **view)
    render = getattr(report, f"render_{args.subcommand}")
    emit(args, payload, lambda: render(payload))
    return 0


def register(sub) -> None:
    """Add the ``telemetry`` group's commands to the subparsers action."""
    trace_p = add_command(
        sub, "trace", cmd_trace,
        "run a traced simulation and write a trace file "
        "(built-in window 1000+2000 cycles)")
    add_options(trace_p, "out", out=dict(required=True,
                                         help="trace output path (JSONL)"))
    add_job_block(trace_p, gpu="SC")
    for name, help_text in (
        ("report", "headline report from a trace file"),
        ("hist", "ASCII latency histograms"),
        ("timeline", "windowed link-occupancy timeline"),
        ("events", "clogging-episode table"),
        ("blame", "stall-attribution matrix and episode root causes"),
    ):
        p = add_command(sub, name, cmd_read, help_text)
        p.add_argument("trace", help="trace file or flight dump (JSONL)")
        if name == "hist":
            p.add_argument("--net", choices=("request", "reply"), default=None,
                           help="only this network's histograms")
            p.add_argument("--cls", choices=("CPU", "GPU"), default=None,
                           help="only this traffic class's histograms")
        add_options(p, "format")
