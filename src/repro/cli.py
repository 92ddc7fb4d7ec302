"""How a command line becomes a job, and how a result leaves.

``python -m repro`` (:mod:`repro.__main__`) is the only command tree;
each subsystem registers its group of subcommands from a ``cli`` module
beside the code it drives.  What those commands have in common is
stated here, once:

* **One option table** (:data:`OPTIONS`, :func:`add_options`): a shared
  flag is spelled, typed and documented identically wherever it appears;
  a command passes only what is its own (a default, a help line).
* **One job block** (:func:`add_job_block`, :func:`job_from_args`):
  ``--gpu --cpu --mechanism --seed --cycles --warmup`` and a repeatable
  ``--set PATH=VALUE`` that reaches any ``SystemConfig`` leaf.  Every
  command that simulates one design point (``run``,
  ``telemetry trace``, ``faults run|plan``) takes
  exactly this block and turns it into the same
  :class:`~repro.sweep.JobSpec` the figures are made of, by the same
  rule (:func:`repro.sweep.jobs.job`).  Nothing about
  a design point is declared here: types and choices are the fields'
  declarations (:func:`repro.config.system.declared_field`), legality is
  ``SystemConfig.validate()``.
* **One way out** (:func:`emit`): ``--format table|json`` on stdout and
  the same JSON in ``--out``.
* **One error contract** (:func:`run_guarded`): a usage error — an
  unknown benchmark, an illegal config value, a malformed window, an
  unreadable file — is one ``error:`` line, status 2, never a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Callable, Mapping, Optional, Union

from repro.config.system import (
    MECHANISMS,
    ConfigError,
    declared_field,
    mechanism_config,
    nested,
)
from repro.sweep.jobs import JobSpec, job

OUTPUT_FORMATS = ("table", "json")


def _int_at_least(minimum: int) -> Callable[[str], int]:
    """An argparse ``type`` that rejects integers below ``minimum``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


#: the shared options: flag name -> its ``add_argument`` keywords
OPTIONS = {
    "gpu": dict(help="GPU benchmark (Table II name)"),
    "cpu": dict(help="CPU benchmark (Parsec name; default: the GPU "
                     "benchmark's first Table II co-runner)"),
    "mechanism": dict(choices=MECHANISMS, default="baseline",
                      help="reply-delivery mechanism (default: %(default)s)"),
    "seed": dict(type=int, help="override the system config's RNG seed"),
    "cycles": dict(type=_int_at_least(1),
                   help="measured window in cycles (default: $REPRO_CYCLES, "
                        "else the command's built-in)"),
    "warmup": dict(type=_int_at_least(0),
                   help="warmup cycles before measurement (default: "
                        "$REPRO_WARMUP, else the command's built-in)"),
    "set": dict(action="append", default=[], metavar="PATH=VALUE",
                help="set any SystemConfig field by dotted path, e.g. "
                     "noc.topology=crossbar (repeatable)"),
    "benchmarks": dict(help="comma-separated GPU benchmarks"),
    "jobs": dict(type=int,
                 help="worker processes (default: $REPRO_SWEEP_JOBS or 1)"),
    "cache-dir": dict(help="sweep result cache directory "
                           "(default: $REPRO_SWEEP_CACHE)"),
    "out": dict(help="also write the JSON result to this file"),
    "format": dict(choices=OUTPUT_FORMATS, default="table",
                   help="stdout format: human-readable table or machine "
                        "JSON (default: %(default)s)"),
}


def add_options(parser: argparse.ArgumentParser, *names: str,
                **changed: Mapping[str, Any]) -> None:
    """Add the shared options ``names`` (:data:`OPTIONS` keys), in order.

    ``name={...}`` lays those keywords over the table's for one of them
    — the per-command default or help line.
    """
    for name in names:
        own = changed.get(name.replace("-", "_"), {})
        parser.add_argument("--" + name, **{**OPTIONS[name], **own})


def add_command(sub, name: str, handler: Callable[[Any], int],
                help: str) -> argparse.ArgumentParser:
    """Register one leaf command under the subparsers action ``sub``."""
    parser = sub.add_parser(name, help=help, description=help)
    parser.set_defaults(handler=handler)
    return parser


def add_job_block(parser: argparse.ArgumentParser,
                  gpu: Optional[str] = None,
                  mechanism: str = "baseline") -> None:
    """The options that name one job: a Table I design point x a Table II
    mix x a window.  ``gpu=None`` makes ``--gpu`` required."""
    add_options(
        parser, "gpu", "cpu", "mechanism", "seed", "cycles", "warmup", "set",
        gpu=dict(required=True) if gpu is None else dict(
            default=gpu,
            help=OPTIONS["gpu"]["help"] + " (default: %(default)s)"),
        mechanism=dict(default=mechanism),
    )


def _apply_setting(cfg, assignment: str) -> None:
    """Apply one ``--set PATH=VALUE`` to ``cfg`` through the declaration."""
    path, eq, text = assignment.partition("=")
    if not eq:
        raise ConfigError(f"--set expects PATH=VALUE, got {assignment!r}")
    typ = declared_field(path)
    try:
        if typ is bool:
            value: Any = {"true": True, "false": False}[text.lower()]
        else:  # enums and strings go as text; update() and validate() judge
            value = typ(text) if typ in (int, float) else text
    except (KeyError, ValueError):
        raise ConfigError(
            f"{path} expects {'true or false' if typ is bool else typ.__name__}"
            f", got {text!r}"
        ) from None
    cfg.update(nested(path, value))


def job_from_args(args: argparse.Namespace, cycles: int = 3000,
                  warmup: int = 2000,
                  preset: Optional[Mapping[str, Any]] = None) -> JobSpec:
    """The :class:`~repro.sweep.JobSpec` a parsed job block names.

    This is :func:`repro.sweep.jobs.job`, the rule the figures use: the
    CPU is the flag, else the GPU benchmark's first Table II co-runner;
    a window is the flag, else ``$REPRO_CYCLES`` / ``$REPRO_WARMUP``,
    else the command's built-in (``cycles`` / ``warmup``).  ``preset``
    is the command's own starting point (``telemetry trace`` turns
    tracing on); ``--set`` comes after it, ``--seed`` last, and the spec
    is validated.
    """
    cfg = mechanism_config(args.mechanism)
    if preset:
        cfg.update(preset)
    for assignment in args.set:
        _apply_setting(cfg, assignment)
    if args.seed is not None:
        cfg.seed = args.seed
    return job(cfg, args.gpu, args.cycles, args.warmup, args.cpu,
               builtin=(cycles, warmup))


def run_guarded(handler: Callable[[Any], int], args: Any) -> int:
    """Run one command under the error contract every command shares.

    A usage error is a ``KeyError`` (unknown benchmark), a ``ValueError``
    (which ``ConfigError``, ``BackendError`` and JSON decoding errors
    are) or an ``OSError`` (unreadable input, unwritable output); each
    leaves as one ``error:`` line on stderr and exit status 2.
    """
    try:
        return handler(args)
    except BrokenPipeError:  # `... | head` is not a usage error
        raise
    except (KeyError, ValueError, OSError) as exc:
        # str(KeyError) is the repr of its argument, quotes and all
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


def emit(args: argparse.Namespace, payload: Any,
         render: Union[str, Callable[[], str]]) -> None:
    """Deliver one command result: ``--format`` on stdout, ``--out`` on disk.

    ``payload`` is the machine answer (anything ``json.dumps`` accepts);
    ``render`` is the human one — either the table string itself or a
    zero-argument callable producing it, so table formatting is only
    paid when the table was asked for.  A command without one of the two
    options behaves as if it were left at its default.
    """
    as_json = getattr(args, "format", "table") == "json"
    out = getattr(args, "out", None)
    text = json.dumps(payload, indent=2, sort_keys=True) if as_json or out else ""
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    if as_json:
        print(text)
    else:
        print(render() if callable(render) else render)
        if out:
            print(f"wrote {out}")
