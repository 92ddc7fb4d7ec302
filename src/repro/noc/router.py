"""Wormhole router with virtual channels and class-based priority.

The router models:

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
ready_cycle, priority_key]`` and the router tracks how many flits of the
head worm it has already forwarded.  This gives flit-level bandwidth and
blocking behaviour without per-flit objects.
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
#: router charges the first seven; ``reply_buffer`` is read off the memory
#: nodes' counters.
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
    """One input virtual channel of a router: the unit that arbitrates,
    holds credit and is pointed at by its feeder — the upstream worm's
    ``InputVC.out``, or the local NIC's row of records (DESIGN.md §6)."""

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
    """One NoC router; created and stepped by :class:`PhysicalNetwork`."""

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

    # ------------------------------------------------------------------
    # buffer interface used by upstream routers and node interfaces
    # ------------------------------------------------------------------

    def accept_flit(self, ivc: InputVC, pkt: Packet, is_tail: bool, cycle: int) -> None:
        """Receive one flit of ``pkt`` into this router's input VC ``ivc``.

        ``_move_flit`` credits a body flit from a neighbour in line, with
        this body branch and arrival wake copied: keep the two in step."""
        q = ivc.q
        if ivc.owner is pkt:
            # body flit: the worm's entry stays (last) in the queue until
            # its tail has been forwarded, drained or not
            q[-1][_AVAIL] += 1
        else:
            # header flit of a new worm in this VC
            q.append([pkt, 1, cycle + self.pipeline, (pkt.cls << 48) | pkt.pid])
            ivc.owner = pkt
            self.active[ivc] = None
            # telemetry: head arrival (once per worm, at its destination
            # router only) and the pipeline-dwell stall record.  The dwell
            # record opens *here*, not in arbitration: the router sleeps
            # through the dwell on a timed wake and would otherwise never
            # observe it, while a router kept awake sees it in every pass
            # — opening at arrival keeps both charges equal.
            # The worm is first visible to per-cycle accounting at cycle+1.
            tel = self.net.telemetry
            if tel is not None and pkt.dst == self.rid:
                tel.on_head(pkt, cycle)
            stel = self.net.stall_tel
            if stel is not None and self.pipeline and len(q) == 1:
                stel.on_stall(ivc, pkt, PIPELINE, cycle + 1)
        ivc.occ += 1
        if is_tail:
            ivc.owner = None
        # every arriving flit is a wake-up event for the scheduler: it may
        # unblock a head worm that was waiting for upstream flits (inline
        # membership guard — the receiver is usually awake already).  While
        # the head worm is still dwelling in the router pipeline nothing
        # can move before its ready cycle, so arrivals during the dwell arm
        # a timed wake instead of forcing a no-op arbitration pass per flit.
        net = self.net
        if self.rid not in net._active_ids:
            ready = q[0][_READY]
            if ready > cycle:
                armed = self.wake_armed
                if armed < 0 or armed > ready:
                    net.schedule_wake(ready, self.rid)
            else:
                net.mark_router_active(self.rid)

    def buffered_flits(self) -> int:
        return sum(v.occ for row in self.inputs for v in row)

    # ------------------------------------------------------------------
    # the commit half of the per-cycle contract
    # ------------------------------------------------------------------

    def _move_flit(self, ivc: InputVC, cycle: int) -> None:
        """Commit a move chosen by ``PhysicalNetwork.decide`` (the only
        commit path): one flit of ``ivc``'s head worm leaves through
        ``ivc.route_out``."""
        net = self.net
        klass = ivc.stall
        if klass >= 0:  # close the open stall record: charge its span
            ivc.stall_row[klass] += cycle - ivc.stall_since
            ivc.stall = -1
        q = ivc.q
        head = q[0]
        pkt: Packet = head[_PKT]
        head[_AVAIL] -= 1
        ivc.occ -= 1
        nsent = ivc.sent + 1
        self.flits_routed += 1
        # drain-wake: freeing a buffer slot is the credit event the (unique)
        # upstream feeder of this input port may be sleeping on — a
        # router, or for the local port this node's NIC
        up = self.upstream[ivc.port]
        if up is None:
            net.active_nics.add(self.rid)
        elif up.active and up.rid not in net._active_ids:
            net.mark_router_active(up.rid)
        is_tail = nsent == pkt.size_flits
        oport = ivc.route_out
        if oport == LOCAL_PORT:
            if is_tail:
                net.eject_flit(self.rid, pkt, is_tail, cycle)
        else:
            dvc = ivc.out
            fa = net.faults
            if nsent == 1 or fa is not None:
                dvc.router.accept_flit(dvc, pkt, is_tail, cycle)
                if fa is not None and nsent == 1:
                    fa.on_link_head(net, self.rid, oport, pkt)
            else:
                # body flit, credited in line: its worm owns ``dvc``, so
                # its entry is the last one there
                dq = dvc.q
                dq[-1][_AVAIL] += 1
                dvc.occ += 1
                if is_tail:
                    dvc.owner = None
                down = dvc.router
                if down.rid not in net._active_ids:
                    ready = dq[0][_READY]
                    if ready > cycle:
                        armed = down.wake_armed
                        if armed < 0 or armed > ready:
                            net.schedule_wake(ready, down.rid)
                    else:
                        net.mark_router_active(down.rid)
            self.link_flits[oport] += 1
        if is_tail:
            pkt.hops += 1
            q.popleft()
            ivc.route_out = -1
            ivc.out = None
            ivc.sent = 0
            if not q:
                self.active.pop(ivc, None)
        else:
            ivc.sent = nsent
