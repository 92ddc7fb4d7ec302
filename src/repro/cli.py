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
``--mechanism M`` reply-delivery mechanism (baseline | rp | dr)

Nothing about a design point is declared here.  The mechanism spellings
come from :data:`repro.config.system.MECHANISMS`, and a flag that sets a
config field (:func:`add_config_option`) takes its name, type, choices
and documented default from the field's declaration in
:mod:`repro.config.system`; legal ranges are checked there too, by
``SystemConfig.validate()``, when the config is built into a system.

Every ``main()`` runs its command through :func:`run_guarded`: a usage
error — an unknown backend or benchmark, an illegal config value, a
malformed window, an unreadable file — is one ``error:`` line, status 2.
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


def add_mechanism_option(
    parser: argparse.ArgumentParser,
    default: str = "baseline",
    help: str = "reply-delivery mechanism (default: %(default)s)",
) -> None:
    from repro.config.system import MECHANISMS

    parser.add_argument(
        "--mechanism", choices=MECHANISMS, default=default, help=help
    )


def add_config_option(
    parser: argparse.ArgumentParser,
    path: str,
    flag: Optional[str] = None,
    default: Any = None,
    help: Optional[str] = None,
) -> None:
    """A flag that sets the ``SystemConfig`` field at dotted ``path``.

    The flag's name (``--sample-rate`` for ``telemetry.sample_rate``
    unless ``flag`` overrides it), value type, choices and the default
    its help quotes are the field's declaration.  The parsed value is
    stored under ``path`` and stays ``None`` — the config's own default
    applies — unless the command pins a different ``default``;
    :func:`set_config_options` applies what was given.
    """
    from repro.config.system import declared_field

    typ, choices, declared = declared_field(path)
    leaf = path.rsplit(".", 1)[-1]
    shown = declared if default is None else default
    parser.add_argument(
        flag or "--" + leaf.replace("_", "-"),
        dest=path,
        metavar=None if choices else leaf.upper(),
        type=str if choices else typ,
        choices=choices,
        default=default,
        help=f"{help or leaf.replace('_', ' ')} "
        f"(default: {'none' if shown == '' else shown})",
    )


def set_config_options(cfg, args: argparse.Namespace):
    """Apply every :func:`add_config_option` flag that holds a value."""
    from repro.config.system import nested

    for path, value in vars(args).items():
        if "." in path and value is not None:
            cfg.update(nested(path, value))
    return cfg


def run_guarded(handler: Callable[[Any], int], args: Any) -> int:
    """Run one command under the error contract every CLI shares.

    A usage error is a ``KeyError`` (unknown benchmark), a ``ValueError``
    (which ``ConfigError``, ``BackendError`` and JSON decoding errors
    are) or an ``OSError`` (unreadable input, unwritable output); each
    leaves through :func:`usage_error_exit`.
    """
    try:
        return handler(args)
    except BrokenPipeError:  # `... | head` is not a usage error
        raise
    except (KeyError, ValueError, OSError) as exc:
        return usage_error_exit(exc)


def usage_error_exit(exc: Exception) -> int:
    """One-line ``error:`` exit shared by every CLI.

    Prints the message of a usage error (a single line by contract) to
    stderr and returns the exit status for the caller to hand to
    ``sys.exit``.
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
