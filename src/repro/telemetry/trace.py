"""The trace file: the Netrace-style exchange format, written and read.

A *trace* is an append-only stream of records, one JSON object per line
— greppable, diffable, loads into pandas with one call.  Packet
lifecycle events (``inject``, ``vc_alloc``, ``head``, ``deliver``,
``delegate``) carry a fixed set of packet fields; aggregate records
(``meta``, ``win``, ``hist``, ``clog``, ``summary``) carry free-form
payloads.  A flight-recorder dump is a small trace: a ``meta`` line
followed by the retained events, written by the same
:class:`JsonlTraceSink` through the same :func:`event_record`, so every
consumer of :func:`read_trace` (the CLI, tests, notebooks) reads either.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path
from typing import Any, Dict, IO, Iterator, Tuple, Union

#: packet lifecycle events; a ring event's code is its index here.
PACKET_EVENTS = ("inject", "vc_alloc", "head", "deliver", "delegate")

#: schema version stamped into every trace's ``meta`` record (v2: ring
#: pipeline, ``metrics`` in the summary; v3: flight dumps are traces,
#: one per trigger cycle, naming ``dump_nodes``).  Older traces read.
TRACE_SCHEMA = 3


@functools.lru_cache(maxsize=None)
def _enum_names() -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """``(message-type names, traffic-class names)``, indexed by enum value.

    Imported on first use: plain readers stay importable without the noc
    package.
    """
    from repro.noc.packet import MessageType, TrafficClass

    return tuple(m.name for m in MessageType), tuple(c.name for c in TrafficClass)


def event_record(ev: Tuple) -> Dict[str, Any]:
    """The record of one packet event, as a trace carries it, from the
    event's ring tuple (field order in :mod:`repro.telemetry.ring`)."""
    code, mtype, cls, net, flits, src, dst, cycle, pid, block, value = ev
    mtype_names, cls_names = _enum_names()
    d = {
        "ev": PACKET_EVENTS[code],
        "cycle": cycle,
        "pid": pid,
        "src": src,
        "dst": dst,
        "block": block,
        "mtype": mtype_names[mtype],
        "cls": cls_names[cls],
        "net": "request" if net == 0 else "reply",
        "flits": flits,
    }
    if value >= 0:
        d["value"] = value
    return d


class JsonlTraceSink:
    """Writes a trace: one JSON object per line."""

    def __init__(self, path: Union[str, Path, IO[str]]) -> None:
        if hasattr(path, "write"):
            self._fh: IO[str] = path  # type: ignore[assignment]
            self._owns = False
        else:
            self._fh = open(path, "w")
            self._owns = True

    def event(self, ev: Tuple) -> None:
        """Write one packet event from its ring tuple."""
        self.record(event_record(ev))

    def record(self, payload: Dict[str, Any]) -> None:
        """Write one aggregate (non-packet) record."""
        self._fh.write(json.dumps(payload))
        self._fh.write("\n")

    def close(self) -> None:
        self._fh.flush()
        if self._owns:
            self._fh.close()


def read_trace(path: Union[str, Path]) -> Iterator[Dict[str, Any]]:
    """Yield every record of a trace file (or flight dump: same format).

    A final line that does not parse is a torn tail — the writer was
    killed mid-line — and ends the stream cleanly; a bad line anywhere
    else, a file whose first line is bad, or a schema version newer than
    this reader raises ``ValueError`` with a one-line diagnosis the CLI
    surfaces as an ``error:`` line.
    """
    with open(path) as fh:
        first = True
        torn = None
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if torn is not None:
                raise torn  # a line follows the bad one: not a torn tail
            try:
                record = json.loads(line)
            except ValueError as exc:
                torn = exc
                continue
            if first:
                first = False
                if record.get("rec") == "meta":
                    schema = record.get("schema", 1)
                    if isinstance(schema, int) and schema > TRACE_SCHEMA:
                        raise ValueError(
                            f"trace schema v{schema} is newer than this "
                            f"reader (supports <= v{TRACE_SCHEMA})"
                        )
            yield record
        if torn is not None and first:
            raise torn  # nothing before it parsed: not a trace at all
