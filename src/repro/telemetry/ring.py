"""Ring-buffer event pipeline: the telemetry hot path.

Per-event dict/record construction is what made always-on telemetry
cost ~45% on saturated meshes.  The hooks now append one fixed-width
raw tuple per event into a bounded per-network ring and everything
record-shaped (sampling, JSON serialisation) happens in deferred
batches at window/finalize boundaries, off the per-event path.

The ring is a ``collections.deque(maxlen=capacity)``: appends and
evictions are single C calls, which measures ~6x cheaper per event than
bit-packing into a preallocated ``array('q')`` in CPython — the packing
arithmetic itself (six shifts and ors per event) dominated the packed
variant.  The bounded deque still gives the ring contract: the most
recent ``capacity`` events per network are always retained.

That retention is the **flight recorder**: when the clogging detector
opens an episode (or a fault fires) the collector writes the retained
events out as a small trace file, through the trace's own writer
(:class:`repro.telemetry.trace.JsonlTraceSink`).

Event tuples are ``EVENT_FIELDS`` wide, and
:func:`repro.telemetry.trace.event_record` takes them as they are::

    (code, mtype, cls, net, flits, src, dst, cycle, pid, block, value)

``code`` indexes ``PACKET_EVENTS``; ``value`` is -1 for none, the
latency on ``deliver``, the VC on ``vc_alloc`` and the target node on
``delegate``.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, List, Tuple

#: fields per in-memory ring event tuple.
EVENT_FIELDS = 11


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
