"""CLI entry point: ``python -m repro.telemetry``.

Subcommands::

    trace     run a traced simulation and write a trace file
    report    headline view: events, per-class latency percentiles, episodes
    hist      ASCII latency histograms (filter with --net / --cls)
    timeline  per-window link-occupancy / injection-rate timeline
    events    clogging-episode table
    blame     stall-attribution matrix, mesh heatmap, episode root causes

Example — produce and inspect a trace of the paper's clogging scenario::

    python -m repro.telemetry trace --out /tmp/sc.jsonl --gpu SC
    python -m repro.telemetry report /tmp/sc.jsonl
    python -m repro.telemetry events /tmp/sc.jsonl
"""

from __future__ import annotations

import argparse
import struct
import sys

from repro.cli import (
    add_config_option,
    add_format_option,
    add_mechanism_option,
    add_out_option,
    add_seed_option,
    add_window_options,
    emit,
    run_guarded,
    set_config_options,
)
from repro.telemetry.report import (
    load_summary,
    payload_blame,
    payload_events,
    payload_hist,
    payload_report,
    payload_timeline,
    render_blame,
    render_events,
    render_hist,
    render_report,
    render_timeline,
)


def _add_trace_parser(sub) -> None:
    p = sub.add_parser(
        "trace", help="run a traced simulation and write a trace file"
    )
    add_out_option(p, required=True, help="trace output path")
    add_config_option(p, "telemetry.trace_format", flag="--format",
                      help="trace encoding")
    p.add_argument("--gpu", default="SC",
                   help="GPU benchmark (default SC, the clogging-heavy one)")
    p.add_argument("--cpu", default=None,
                   help="CPU co-runner (default: the benchmark's first "
                        "Table II mix)")
    add_mechanism_option(p)
    add_window_options(p, cycles=2000, warmup=1000)
    add_seed_option(p)
    for field in ("sample_rate", "probe_interval", "clog_threshold",
                  "clog_min_windows"):
        add_config_option(p, f"telemetry.{field}")
    add_config_option(p, "telemetry.mode", default="full",
                      help="instrumentation tier; the CLI defaults to full "
                           "(exact stall attribution for the blame reports) "
                           "where the config default is light")
    add_config_option(p, "telemetry.flight_dir",
                      help="directory for flight-recorder RDMP dumps "
                           "(written when a clogging episode opens or a "
                           "fault fires; empty: no dumps)")


def cmd_trace(args) -> int:
    # simulator imports are deferred so the reader subcommands stay light
    from repro.config import mechanism_config
    from repro.experiments.common import cpu_corunners
    from repro.sim.simulator import run_simulation

    cfg = set_config_options(mechanism_config(args.mechanism), args)
    if args.seed is not None:
        cfg.seed = args.seed
    cfg.telemetry.enabled = True
    cfg.telemetry.trace_path = args.out
    cpu = args.cpu or cpu_corunners(args.gpu, 1)[0]
    result = run_simulation(
        cfg, args.gpu, cpu, cycles=args.cycles, warmup=args.warmup
    )
    print(
        f"traced {args.gpu}/{cpu}/{args.mechanism}: "
        f"{args.warmup}+{args.cycles} cycles -> {args.out}"
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry",
        description="per-packet tracing, latency histograms and "
        "clogging-event reports",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_trace_parser(sub)
    for name, help_text in (
        ("report", "headline report from a trace file"),
        ("hist", "ASCII latency histograms"),
        ("timeline", "windowed link-occupancy timeline"),
        ("events", "clogging-episode table"),
        ("blame", "stall-attribution matrix and episode root causes"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("trace", help="trace file (jsonl or bin)")
        if name == "hist":
            p.add_argument("--net", choices=("request", "reply"), default=None)
            p.add_argument("--cls", choices=("CPU", "GPU"), default=None)
        # the shared table/json switch; note the `trace` subcommand's
        # --format is a different thing (jsonl/bin trace encoding)
        add_format_option(p)
    return run_guarded(_dispatch, parser.parse_args(argv))


def _dispatch(args) -> int:
    if args.command == "trace":
        return cmd_trace(args)
    # a broken trace gets a one-line diagnosis, not a traceback: missing
    # file (OSError), truncated/garbled JSON or text (ValueError covers
    # json.JSONDecodeError and UnicodeDecodeError), torn binary framing
    # (struct.error)
    try:
        summary = load_summary(args.trace)
    except OSError as exc:
        print(f"error: cannot read trace {args.trace!r}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return 2
    except (ValueError, struct.error) as exc:
        print(f"error: {args.trace!r} is not a readable trace "
              f"(truncated or not a trace file): {exc}", file=sys.stderr)
        return 2
    if summary.records == 0:
        print(f"error: trace {args.trace!r} is empty (no records)",
              file=sys.stderr)
        return 2
    if args.command == "report":
        emit(args.format, payload_report(summary),
             lambda: render_report(summary))
    elif args.command == "hist":
        emit(args.format, payload_hist(summary, net=args.net, cls=args.cls),
             lambda: render_hist(summary, net=args.net, cls=args.cls))
    elif args.command == "timeline":
        emit(args.format, payload_timeline(summary),
             lambda: render_timeline(summary))
    elif args.command == "events":
        emit(args.format, payload_events(summary),
             lambda: render_events(summary))
    elif args.command == "blame":
        emit(args.format, payload_blame(summary),
             lambda: render_blame(summary))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. `... report trace | head`
        sys.exit(0)
