"""Per-packet trace sinks: the Netrace-style exchange format.

A *trace* is an append-only stream of event records.  Packet lifecycle
events (``inject``, ``vc_alloc``, ``head``, ``deliver``, ``delegate``)
carry a fixed tuple of packet fields; aggregate records (``meta``,
``win``, ``hist``, ``clog``, ``summary``) carry free-form payloads.  Two
backends implement the same :class:`TraceSink` protocol:

* :class:`JsonlTraceSink` — one JSON object per line; greppable,
  diffable, loads into pandas with one call.
* :class:`BinaryTraceSink` — packet events as 42-byte packed structs
  behind a magic header; aggregate records as length-prefixed JSON
  blobs.  ~6x smaller than JSONL for packet-dominated traces.

:func:`read_trace` auto-detects the backend from the file's magic and
yields identical dicts for both — plus a third format, the ``RDMP``
flight-recorder ring dumps of :mod:`repro.telemetry.ring` — so every
consumer (the CLI, tests, notebooks) is backend-agnostic.
"""

from __future__ import annotations

import functools
import json
import struct
from pathlib import Path
from typing import Any, Dict, IO, Iterator, Tuple, Union

#: packet lifecycle event codes (binary tag byte; JSONL uses the names).
PACKET_EVENTS = ("inject", "vc_alloc", "head", "deliver", "delegate")
_EVENT_CODE = {name: i for i, name in enumerate(PACKET_EVENTS)}

#: binary file magic + format version
MAGIC = b"RTEL"
VERSION = 1

#: tag byte marking a length-prefixed JSON aggregate record
_JSON_TAG = 0xFE

#: packet-event payload: cycle, pid, src, dst, block, mtype, cls, net,
#: flits, value (latency on deliver, delegate target on delegate, -1 else)
_PACKET_STRUCT = struct.Struct("<QQiiqBBBHi")


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


class BinaryTraceSink(TraceSink):
    """Compact packed-struct backend for packet-dominated traces."""

    def __init__(self, path: Union[str, Path]) -> None:
        self._fh = open(path, "wb")
        self._fh.write(MAGIC + struct.pack("<H", VERSION))

    def packet_event(self, event: str, cycle: int, pkt, value: int = -1) -> None:
        self._fh.write(bytes((_EVENT_CODE[event],)))
        self._fh.write(
            _PACKET_STRUCT.pack(
                cycle,
                pkt.pid,
                pkt.src,
                pkt.dst,
                pkt.block,
                int(pkt.mtype),
                int(pkt.cls),
                int(pkt.net),
                pkt.size_flits,
                value,
            )
        )

    def record(self, payload: Dict[str, Any]) -> None:
        blob = json.dumps(payload).encode("utf-8")
        self._fh.write(bytes((_JSON_TAG,)) + struct.pack("<I", len(blob)) + blob)

    def close(self) -> None:
        self._fh.flush()
        self._fh.close()


class NullTraceSink(TraceSink):
    """Discards everything (histograms/probes only, no per-packet I/O)."""

    def packet_event(self, event: str, cycle: int, pkt, value: int = -1) -> None:
        return None

    def record(self, payload: Dict[str, Any]) -> None:
        return None

    def close(self) -> None:
        return None


def open_sink(path: Union[str, Path], fmt: str = "jsonl") -> TraceSink:
    """Open a trace sink of the requested format (``jsonl`` or ``bin``)."""
    if fmt == "jsonl":
        return JsonlTraceSink(path)
    if fmt == "bin":
        return BinaryTraceSink(path)
    raise ValueError(f"unknown trace format {fmt!r}; choose jsonl or bin")


# ---------------------------------------------------------------------------
# reading
# ---------------------------------------------------------------------------


def _read_binary(fh: IO[bytes]) -> Iterator[Dict[str, Any]]:
    size = _PACKET_STRUCT.size
    while True:
        tag = fh.read(1)
        if not tag:
            return
        if tag[0] == _JSON_TAG:
            (length,) = struct.unpack("<I", fh.read(4))
            yield json.loads(fh.read(length).decode("utf-8"))
            continue
        buf = fh.read(size)
        if len(buf) < size:
            return  # truncated tail record (interrupted run): stop cleanly
        yield event_record(tag[0], *_PACKET_STRUCT.unpack(buf))


def read_trace(path: Union[str, Path]) -> Iterator[Dict[str, Any]]:
    """Yield every record of a trace file, whatever its backend.

    Auto-detects the three on-disk formats from the file's magic: ``RTEL``
    packed binary traces, ``RDMP`` ring/flight-recorder dumps and (the
    fallback) JSONL.  Unknown schema versions raise ``ValueError`` with a
    one-line diagnosis — the CLI surfaces it as an ``error:`` line.
    """
    # the dump reader is imported lazily, mirroring the enum-name imports:
    # plain-JSONL consumers stay importable without the ring module
    from repro.telemetry.ring import DUMP_MAGIC, read_dump

    path = Path(path)
    with open(path, "rb") as probe:
        head = probe.read(max(len(MAGIC), len(DUMP_MAGIC)))
    if head[: len(MAGIC)] == MAGIC:
        with open(path, "rb") as fh:
            fh.read(len(MAGIC))
            (version,) = struct.unpack("<H", fh.read(2))
            if version != VERSION:
                raise ValueError(
                    f"RTEL trace version v{version} is not supported "
                    f"(this reader speaks v{VERSION})"
                )
            yield from _read_binary(fh)
        return
    if head[: len(DUMP_MAGIC)] == DUMP_MAGIC:
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
