"""Ring-buffer event pipeline: the telemetry hot path.

Per-event dict/record construction is what made always-on telemetry
cost ~45% on saturated meshes.  The hooks now append one fixed-width
raw tuple per event into a bounded per-network ring and everything
record-shaped (sampling, JSON/struct serialisation, bit-packing)
happens in deferred batches at window/finalize boundaries, off the
per-event path.

The ring is a ``collections.deque(maxlen=capacity)``: appends and
evictions are single C calls, which measures ~6x cheaper per event than
bit-packing into a preallocated ``array('q')`` in CPython — the packing
arithmetic itself (six shifts and ors per event) dominated the packed
variant, so packing is deferred to dump time where it amortises against
file I/O.  The bounded deque still gives the ring contract: the most
recent ``capacity`` events per network are always retained.

That retention is the **flight recorder**: when the clogging detector
opens an episode (or a fault fires) the collector dumps the retained
events as a compact ``RDMP`` file — bit-packed five-word records, the
layout below — that :func:`repro.telemetry.trace.read_trace` decodes
like any other trace.

In-memory event tuples are ``EVENT_FIELDS`` wide::

    (code, mtype, cls, net, flits, src, dst, cycle, pid, block, value)

``RDMP`` packs each into five 64-bit words (63 bits used in the first;
the sign bit stays clear so signed i64 never overflows)::

    w0  bits  0-3   event code (index into PACKET_EVENTS)
        bits  4-8   message type
        bit   9     traffic class
        bit   10    network kind (0 request / 1 reply)
        bits 11-22  packet size in flits
        bits 23-42  source node
        bits 43-62  destination node
    w1  cycle
    w2  packet id
    w3  block address
    w4  value (-1 = none; latency on deliver, target on delegate)
"""

from __future__ import annotations

import json
import struct
from collections import deque
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Tuple, Union

#: fields per in-memory ring event tuple.
EVENT_FIELDS = 11

#: 64-bit words per packed ``RDMP`` dump event.
STRIDE = 5

#: ``RDMP`` flight-/ring-dump file magic; the u16 after it carries the
#: trace schema version (``repro.telemetry.collector.TRACE_SCHEMA``).
DUMP_MAGIC = b"RDMP"

_DUMP_HEAD = struct.Struct("<HI")  # schema version, meta-blob length
_DUMP_COUNT = struct.Struct("<I")  # packed event count
_EVENT_WORDS = struct.Struct("<5q")

# w0 field offsets/masks (see module docstring)
_MTYPE_SHIFT = 4
_CLS_SHIFT = 9
_NET_SHIFT = 10
_FLITS_SHIFT = 11
_SRC_SHIFT = 23
_DST_SHIFT = 43
_CODE_MASK = 0xF
_MTYPE_MASK = 0x1F
_FLITS_MASK = 0xFFF
_NODE_MASK = 0xFFFFF


def pack_w0(code: int, mtype: int, cls: int, net: int, flits: int,
            src: int, dst: int) -> int:
    """Pack the small event fields into the first dump word."""
    return (
        code
        | (mtype << _MTYPE_SHIFT)
        | (cls << _CLS_SHIFT)
        | (net << _NET_SHIFT)
        | (flits << _FLITS_SHIFT)
        | (src << _SRC_SHIFT)
        | (dst << _DST_SHIFT)
    )


def unpack_w0(w0: int):
    """``(code, mtype, cls, net, flits, src, dst)`` from a packed word."""
    return (
        w0 & _CODE_MASK,
        (w0 >> _MTYPE_SHIFT) & _MTYPE_MASK,
        (w0 >> _CLS_SHIFT) & 1,
        (w0 >> _NET_SHIFT) & 1,
        (w0 >> _FLITS_SHIFT) & _FLITS_MASK,
        (w0 >> _SRC_SHIFT) & _NODE_MASK,
        (w0 >> _DST_SHIFT) & _NODE_MASK,
    )


class EventRing:
    """Bounded ring of fixed-width telemetry event tuples.

    Hooks append to :attr:`events` directly (``ring.events.append(ev)``
    — one C call; a wrapper method per event would double the cost).
    The deque silently retains the most recent ``capacity`` events,
    which is exactly the flight-recorder contract.

    A *tracing* collector additionally maintains :attr:`head` (events
    ever appended) and :attr:`drained` (events already flushed to the
    sink) and flushes via :meth:`take_pending` before ``head - drained``
    reaches ``capacity``, so trace mode never loses an event to ring
    eviction.  The non-tracing path touches neither counter.
    """

    __slots__ = ("capacity", "events", "head", "drained")

    def __init__(self, capacity: int = 4096) -> None:
        self.capacity = max(2, int(capacity))
        self.events: deque = deque(maxlen=self.capacity)
        self.head = 0
        self.drained = 0

    def append(self, ev: Tuple) -> None:
        """Append one event tuple (hot paths inline ``events.append``)."""
        self.events.append(ev)

    def __len__(self) -> int:
        return len(self.events)

    def snapshot(self) -> List[Tuple]:
        """Every retained event, oldest first (the flight-recorder view)."""
        return list(self.events)

    def take_pending(self) -> List[Tuple]:
        """Sink-undrained events, oldest first; marks them drained.

        Valid on the tracing path only (where ``head`` is maintained and
        the drain cadence guarantees no undrained event was evicted): the
        pending events are the last ``head - drained`` entries.  Events
        stay in the deque for the flight recorder.
        """
        n = self.head - self.drained
        if n <= 0:
            return []
        self.drained = self.head
        evs = list(self.events)
        return evs[-n:] if n < len(evs) else evs


def merge_events(*batches: Iterable[Tuple]) -> List[Tuple]:
    """Merge per-ring event batches into one cycle-ordered stream.

    Each batch is already cycle-sorted (appends are monotone in cycle),
    so a stable sort on the cycle field recovers a deterministic global
    order: ties keep batch order (request-net events before reply-net).
    """
    if len(batches) == 1:
        return list(batches[0])
    merged: List[Tuple] = []
    for batch in batches:
        merged.extend(batch)
    merged.sort(key=lambda ev: ev[7])
    return merged


def write_dump(
    path: Union[str, Path],
    meta: Dict[str, Any],
    events: Iterable[Tuple],
    schema: int,
) -> None:
    """Write a ring dump: magic, schema, JSON meta blob, packed events.

    ``events`` are in-memory ring tuples (:data:`EVENT_FIELDS` wide);
    each is bit-packed into :data:`STRIDE` words here, off the hot path.
    """
    events = list(events)
    blob = json.dumps(meta).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(DUMP_MAGIC)
        fh.write(_DUMP_HEAD.pack(schema, len(blob)))
        fh.write(blob)
        fh.write(_DUMP_COUNT.pack(len(events)))
        pack = _EVENT_WORDS.pack
        for code, mtype, cls, net, flits, src, dst, cycle, pid, block, value in events:
            fh.write(
                pack(
                    pack_w0(code, mtype, cls, net, flits, src, dst),
                    cycle, pid, block, value,
                )
            )


def read_dump(path: Union[str, Path], max_schema: int) -> Iterator[Dict]:
    """Yield trace-shaped records from an ``RDMP`` ring dump.

    The first record is the embedded ``meta`` blob (with ``rec="meta"``
    and the file's ``schema``); packed events follow as the same dicts
    :func:`repro.telemetry.trace.read_trace` yields for a JSONL trace.
    Raises ``ValueError`` on schema versions newer than ``max_schema``.
    """
    from repro.telemetry.trace import event_record

    with open(path, "rb") as fh:
        magic = fh.read(len(DUMP_MAGIC))
        if magic != DUMP_MAGIC:
            raise ValueError(f"not a ring dump (bad magic {magic!r})")
        schema, blob_len = _DUMP_HEAD.unpack(fh.read(_DUMP_HEAD.size))
        if schema > max_schema:
            raise ValueError(
                f"ring dump schema v{schema} is newer than this reader "
                f"(supports <= v{max_schema})"
            )
        meta = json.loads(fh.read(blob_len).decode("utf-8"))
        meta.setdefault("rec", "meta")
        meta.setdefault("schema", schema)
        yield meta
        (count,) = _DUMP_COUNT.unpack(fh.read(_DUMP_COUNT.size))
        size = _EVENT_WORDS.size
        for _ in range(count):
            buf = fh.read(size)
            if len(buf) < size:
                return  # truncated tail (interrupted dump): stop cleanly
            w0, cycle, pid, block, value = _EVENT_WORDS.unpack(buf)
            code, mtype, cls, net, flits, src, dst = unpack_w0(w0)
            yield event_record(
                code, cycle, pid, src, dst, block, mtype, cls, net, flits, value
            )
