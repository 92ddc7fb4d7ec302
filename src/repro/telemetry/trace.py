"""Per-packet trace sinks: the Netrace-style exchange format.

A *trace* is an append-only stream of event records.  Packet lifecycle
events (``inject``, ``vc_alloc``, ``head``, ``deliver``, ``delegate``)
carry a fixed tuple of packet fields; aggregate records (``meta``,
``win``, ``hist``, ``clog``, ``summary``) carry free-form payloads.
:class:`JsonlTraceSink` writes one JSON object per line — greppable,
diffable, loads into pandas with one call; :class:`NullTraceSink` keeps
the aggregates and drops the per-packet I/O.

:func:`read_trace` reads that file and, told apart by its magic, the
``RDMP`` flight-recorder ring dumps of :mod:`repro.telemetry.ring`
(a different producer: a bounded ring, packed), yielding the same dicts
for both, so every consumer (the CLI, tests, notebooks) reads either.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path
from typing import Any, Dict, IO, Iterator, Tuple, Union

#: packet lifecycle events; a ring event's code is its index here.
PACKET_EVENTS = ("inject", "vc_alloc", "head", "deliver", "delegate")
_EVENT_CODE = {name: i for i, name in enumerate(PACKET_EVENTS)}


class TraceSink:
    """Protocol for trace backends (duck-typed; subclassing optional)."""

    def packet_event(self, event: str, cycle: int, pkt, value: int = -1) -> None:
        raise NotImplementedError

    def record(self, payload: Dict[str, Any]) -> None:
        """Write one aggregate (non-packet) record."""
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


@functools.lru_cache(maxsize=None)
def _enum_names() -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """``(message-type names, traffic-class names)``, indexed by enum value.

    Imported on first use: plain readers stay importable without the noc
    package.
    """
    from repro.noc.packet import MessageType, TrafficClass

    return tuple(m.name for m in MessageType), tuple(c.name for c in TrafficClass)


def event_record(
    code: int, cycle: int, pid: int, src: int, dst: int, block: int,
    mtype: int, cls: int, net: int, flits: int, value: int,
) -> Dict[str, Any]:
    """The record of one packet event, as the JSONL sink writes it and
    every reader yields it, from the event's numeric fields."""
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


class JsonlTraceSink(TraceSink):
    """One JSON object per line; human-greppable."""

    def __init__(self, path: Union[str, Path, IO[str]]) -> None:
        if hasattr(path, "write"):
            self._fh: IO[str] = path  # type: ignore[assignment]
            self._owns = False
        else:
            self._fh = open(path, "w")
            self._owns = True

    def packet_event(self, event: str, cycle: int, pkt, value: int = -1) -> None:
        self._fh.write(json.dumps(event_record(
            _EVENT_CODE[event], cycle, pkt.pid, pkt.src, pkt.dst, pkt.block,
            pkt.mtype, pkt.cls, pkt.net, pkt.size_flits, value,
        )))
        self._fh.write("\n")

    def record(self, payload: Dict[str, Any]) -> None:
        self._fh.write(json.dumps(payload))
        self._fh.write("\n")

    def close(self) -> None:
        self._fh.flush()
        if self._owns:
            self._fh.close()


class NullTraceSink(TraceSink):
    """Discards everything (histograms/probes only, no per-packet I/O)."""

    def packet_event(self, event: str, cycle: int, pkt, value: int = -1) -> None:
        return None

    def record(self, payload: Dict[str, Any]) -> None:
        return None

    def close(self) -> None:
        return None


# ---------------------------------------------------------------------------
# reading
# ---------------------------------------------------------------------------


def read_trace(path: Union[str, Path]) -> Iterator[Dict[str, Any]]:
    """Yield every record of a trace file or flight dump.

    Tells the two on-disk formats apart by the file's magic: ``RDMP``
    ring/flight-recorder dumps, else JSONL.  Unknown schema versions
    raise ``ValueError`` with a one-line diagnosis — the CLI surfaces it
    as an ``error:`` line.
    """
    # the dump reader is imported lazily, mirroring the enum-name imports:
    # plain-JSONL consumers stay importable without the ring module
    from repro.telemetry.ring import DUMP_MAGIC, read_dump

    path = Path(path)
    with open(path, "rb") as probe:
        head = probe.read(len(DUMP_MAGIC))
    if head == DUMP_MAGIC:
        from repro.telemetry.collector import TRACE_SCHEMA

        yield from read_dump(path, max_schema=TRACE_SCHEMA)
        return
    with open(path) as fh:
        first = True
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if first:
                first = False
                if record.get("rec") == "meta":
                    from repro.telemetry.collector import TRACE_SCHEMA

                    schema = record.get("schema", 1)
                    if isinstance(schema, int) and schema > TRACE_SCHEMA:
                        raise ValueError(
                            f"trace schema v{schema} is newer than this "
                            f"reader (supports <= v{TRACE_SCHEMA})"
                        )
            yield record
