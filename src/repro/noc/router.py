"""Wormhole router state: input virtual channels, credits and wake marks.

A :class:`Router` and its :class:`InputVC` records are plain state; the
one class that moves flits through them is
:class:`~repro.noc.network.PhysicalNetwork` (``decide``, ``commit``,
``accept``; DESIGN.md §6.1).  Together they model:

* per-input-port, per-VC flit buffers with credit-based backpressure,
* wormhole flow control — a packet (worm) holds its downstream VC from
  header to tail, and flits of different packets never interleave within a
  VC,
* switch allocation with CPU-over-GPU priority (the baseline gives CPU
  traffic higher priority throughout the memory system, Section II),
* a router pipeline: a worm's header must dwell ``pipeline_cycles`` cycles
  in an input buffer before it can be forwarded; body flits then stream at
  link rate, exactly like a pipelined wormhole router,
* an escape virtual channel for adaptive routing (Duato's construction):
  the first VC of a packet's VC range is reserved for dimension-order
  routes, which keeps the adaptive schemes of Section III-B deadlock-free.

Worms are *counter-based*: a buffer entry is ``[packet, flits_here,
ready_cycle, priority_key]`` and the input VC records how many flits of
its head worm have already been forwarded.  This gives flit-level
bandwidth and blocking behaviour without per-flit objects.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional

from repro.noc.packet import Packet

#: output/input port index of the local node interface.
LOCAL_PORT = 0

# buffer entry field indices; the fourth field, read only by the unpacking
# in ``PhysicalNetwork.decide``, is the arbitration key: class-major, then
# age, in one int (pid is monotone and far below 2**48), the order of the
# (cls, pid) tuple
_PKT, _AVAIL, _READY = 0, 1, 2

#: the fixed stall taxonomy of full-mode stall attribution, in
#: charge-index order (re-exported by :mod:`repro.telemetry.blame`).  The
#: network's arbitration pass charges the first seven; ``reply_buffer`` is
#: read off the memory nodes' counters.
STALL_CLASSES = (
    "pipeline",       # header dwelling in the router pipeline
    "route",          # route computation found no admissible output port
    "vc_alloc",       # no downstream VC allocatable (held or credit-full)
    "credit",         # established worm out of downstream credits
    "switch",         # lost switch allocation to a higher-priority worm
    "serialization",  # head worm waiting for its own upstream flits
    "eject",          # ejection gate / NIC backpressure at the endpoint
    "reply_buffer",   # memory-node reply injection buffer full (Fig. 3)
)

# charge indices (module-level ints so the router loop pays no lookup)
PIPELINE, ROUTE, VC_ALLOC, CREDIT, SWITCH, SERIALIZATION, EJECT, REPLY_BUFFER = (
    range(len(STALL_CLASSES))
)


class InputVC:
    """One input virtual channel of a router, a record with no methods:
    the unit ``PhysicalNetwork.decide`` arbitrates, ``commit`` drains and
    ``accept`` fills.  It holds credit and is pointed at by its feeder —
    the upstream worm's ``InputVC.out``, or the local NIC's row of
    records, whose ``owner``s are the NIC's worms mid-injection
    (DESIGN.md §6)."""

    __slots__ = (
        "router", "port", "vc",
        "q", "occ", "owner", "route_out", "out", "sent",
        "stall", "stall_since", "stall_row",
    )

    def __init__(self, router: "Router", port: int, vc: int) -> None:
        self.router = router
        self.port = port
        self.vc = vc
        #: buffered worms, oldest first: ``[packet, flits_here, ready, key]``
        self.q: deque = deque()
        #: flits buffered here (the credit count its feeder tests)
        self.occ = 0
        #: worm currently streaming *into* this VC (write lock).
        self.owner: Optional[Packet] = None
        #: chosen output port for the head worm (-1 unset).
        self.route_out = -1
        #: the downstream input VC allocated to the head worm (None unset).
        self.out: Optional["InputVC"] = None
        #: flits of the head worm already forwarded from this router.
        self.sent = 0
        #: the open stall-attribution record (full-mode telemetry): its
        #: stall class (-1: none), the cycle it started and the stall
        #: table row it charges.  ``on_stall`` opens and re-classes it,
        #: and is called only when the class changes; a move closes it.
        self.stall = -1
        self.stall_since = 0
        self.stall_row: Optional[List[int]] = None


class Router:
    """One NoC router's state, created and stepped by
    :class:`~repro.noc.network.PhysicalNetwork`; its one query,
    ``buffered_flits``, is what the fault watchdog reads per router."""

    __slots__ = (
        "rid",
        "net",
        "nports",
        "vcs",
        "vc_cap",
        "pipeline",
        "inputs",
        "active",
        "downstream",
        "upstream",
        "flits_routed",
        "link_flits",
        "wake_armed",
    )

    def __init__(
        self,
        rid: int,
        net: "PhysicalNetwork",
        nports: int,
        vcs: int,
        vc_cap: int,
        pipeline: int,
    ) -> None:
        self.rid = rid
        self.net = net
        self.nports = nports
        self.vcs = vcs
        self.vc_cap = vc_cap
        self.pipeline = pipeline
        #: all per-VC state, one record each, indexed ``[port][vc]``.
        self.inputs: List[List[InputVC]] = [
            [InputVC(self, port, vc) for vc in range(vcs)]
            for port in range(nports)
        ]
        #: the input VCs whose buffer is not empty, an insertion-ordered
        #: set; kept exact so the network can skip idle routers entirely.
        self.active: Dict[InputVC, None] = {}
        #: output port -> the downstream router's input-port row of
        #: records; filled in by the network during wiring.  Entry for
        #: LOCAL_PORT is None (ejection goes to the node interface).
        self.downstream: List[Optional[List[InputVC]]] = [None] * nports
        #: router feeding each input port (None for LOCAL_PORT: the NIC).
        #: Each input port has exactly one upstream, so a flit draining
        #: from it is a precise credit event for that neighbour (or NIC).
        self.upstream: List[Optional["Router"]] = [None] * nports
        #: total flits moved through this router (energy model input).
        self.flits_routed = 0
        #: flits sent per output port (a row of the network's ``link_flits``)
        self.link_flits = [0] * nports
        #: earliest timed wake currently sitting in the network's wake heap
        #: for this router (-1: none); lets the scheduler avoid pushing a
        #: duplicate heap entry per arriving body flit of a dwelling worm.
        self.wake_armed = -1

    def buffered_flits(self) -> int:
        return sum(v.occ for row in self.inputs for v in row)
