"""Shared command-line conventions for the ``repro.*`` CLIs.

Every entry point (``repro.sweep``, ``repro.telemetry``, ``repro.faults``,
``repro.model``, ``repro.explore``) spells the common flags identically by
building them through these helpers:

``--cycles N``   measured-window length
``--warmup N``   warmup length
``--jobs N``     worker processes
``--batch N``    sweep jobs per worker task (chunked submission)
``--out PATH``   primary output file
``--seed N``     override the config's RNG seed
``--format F``   human table vs machine JSON on stdout
``--backend B``  simulation engine (object | vector)

A usage error — an unknown backend or benchmark, a malformed window —
leaves through :func:`usage_error_exit`: one ``error:`` line, status 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Callable, Optional, Union

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


def add_cycles_option(
    parser: argparse.ArgumentParser,
    default: Optional[int] = None,
    help: str = "measured window in cycles "
    "(default: $REPRO_CYCLES or the command's built-in)",
) -> None:
    parser.add_argument(
        "--cycles", type=_int_at_least(1), default=default, help=help
    )


def add_warmup_option(
    parser: argparse.ArgumentParser,
    default: Optional[int] = None,
    help: str = "warmup cycles before measurement "
    "(default: $REPRO_WARMUP or the command's built-in)",
) -> None:
    parser.add_argument(
        "--warmup", type=_int_at_least(0), default=default, help=help
    )


def add_window_options(
    parser: argparse.ArgumentParser,
    cycles: Optional[int] = None,
    warmup: Optional[int] = None,
) -> None:
    """The ``--cycles`` / ``--warmup`` pair every simulating CLI takes."""
    add_cycles_option(parser, default=cycles)
    add_warmup_option(parser, default=warmup)


def add_jobs_option(
    parser: argparse.ArgumentParser,
    default: Optional[int] = None,
    help: str = "worker processes (default: $REPRO_SWEEP_JOBS or 1)",
) -> None:
    parser.add_argument("--jobs", type=int, default=default, help=help)


def add_batch_option(
    parser: argparse.ArgumentParser,
    default: Optional[int] = None,
    help: str = "sweep jobs per worker task "
    "(default: $REPRO_SWEEP_BATCH or adaptive; 1 disables batching)",
) -> None:
    parser.add_argument("--batch", type=int, default=default, help=help)


def add_out_option(
    parser: argparse.ArgumentParser,
    default: Optional[str] = None,
    required: bool = False,
    help: str = "output file path",
) -> None:
    parser.add_argument(
        "--out", default=default, required=required, help=help
    )


def add_seed_option(
    parser: argparse.ArgumentParser,
    default: Optional[int] = None,
    help: str = "override the system config's RNG seed",
) -> None:
    parser.add_argument("--seed", type=int, default=default, help=help)


def add_format_option(
    parser: argparse.ArgumentParser,
    default: str = "table",
    help: str = "stdout format: human-readable table or machine JSON "
    "(default: %(default)s)",
) -> None:
    parser.add_argument(
        "--format", choices=OUTPUT_FORMATS, default=default, help=help
    )


def add_backend_option(
    parser: argparse.ArgumentParser,
    help: str = "simulation engine "
    "(default: $REPRO_BACKEND or the command's built-in)",
) -> None:
    from repro.sim.engines import available_backends

    parser.add_argument(
        "--backend", choices=available_backends(), default=None, help=help
    )


def usage_error_exit(exc: Exception) -> int:
    """One-line ``error:`` exit shared by every CLI.

    Prints the message of a usage error (a
    :class:`~repro.sim.engines.BackendError`, an unknown benchmark's
    ``KeyError``, a malformed window's ``ValueError`` — each a single
    line by contract) to stderr and returns the exit status for the
    caller to hand to ``sys.exit``.
    """
    # str(KeyError) is the repr of its argument, quotes and all
    message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
    print(f"error: {message}", file=sys.stderr)
    return 2


def emit(
    fmt: str,
    payload: Any,
    render: Union[str, Callable[[], str]],
) -> None:
    """Print one command result honouring the ``--format`` choice.

    ``payload`` is the machine answer (anything ``json.dumps`` accepts);
    ``render`` is the human one — either the table string itself or a
    zero-argument callable producing it, so table formatting is only
    paid when the table was asked for.
    """
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(render() if callable(render) else render)
