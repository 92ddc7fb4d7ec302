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
from typing import Dict, List, Optional, Tuple

from repro.noc.packet import Packet

#: output/input port index of the local node interface.
LOCAL_PORT = 0

# buffer entry field indices; the fourth field, read only by ``decide``'s
# unpacking, is the arbitration key: class-major, then age, in one int
# (pid is monotone and far below 2**48), the order of the (cls, pid) tuple
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
        "rescan",
        "wake_at",
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
        #: outcome of the last :meth:`decide` pass, read by the network's
        #: active-set scheduler.  ``rescan`` means the pass produced a move
        #: or some head worm waits on a condition no wake event reports
        #: (route failure, dead link, adaptive re-route), so the router
        #: must be re-arbitrated next pass.  ``wake_at`` is the earliest
        #: pipeline-ready cycle among dwelling headers (-1: none).
        self.rescan = True
        self.wake_at = -1
        #: earliest timed wake currently sitting in the network's wake heap
        #: for this router (-1: none); lets the scheduler avoid pushing a
        #: duplicate heap entry per arriving body flit of a dwelling worm.
        self.wake_armed = -1

    # ------------------------------------------------------------------
    # buffer interface used by upstream routers and node interfaces
    # ------------------------------------------------------------------

    def accept_flit(self, ivc: InputVC, pkt: Packet, is_tail: bool, cycle: int) -> None:
        """Receive one flit of ``pkt`` into this router's input VC ``ivc``."""
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
    # per-cycle switch traversal
    # ------------------------------------------------------------------

    def decide(self, cycle: int, net: "PhysicalNetwork", moves: List) -> None:
        """One switch-allocation pass: the *decide* half of the per-cycle
        contract (DESIGN.md, "Per-cycle NoC contract").

        Admits candidates and picks winners against the state left by the
        previous pass, and *appends* ``(router, input VC, oport)`` to
        ``moves`` instead of moving anything: the fabric applies every
        router's moves afterwards (:meth:`_move_flit`), so all routers
        arbitrate against the same start-of-pass state and no flit or
        credit ripples through several routers within one pass.  VC
        allocations (``InputVC.out``) are made here and persist even when
        the worm then loses switch allocation.

        ``self.rescan``/``self.wake_at`` classify the outcome so the
        network can skip this router until something can change: worms
        dwelling in the router pipeline wake at a known cycle; worms
        waiting for upstream flits, downstream credit or an ejection gate
        wake on ``accept_flit``, the drain-wake in ``_move_flit`` or
        ``notify_eject_ready``; route failures, dead links and adaptive
        re-routes — and any pass that produced a move — force a rescan.

        A blocked head is reported (``on_stall``) only when its class
        differs from ``InputVC.stall``, that of its open record: observing
        the same class again charges nothing.
        """
        # output port -> (priority key, input VC); built lazily — the
        # overwhelmingly common case is zero or one candidate.
        winners: Optional[Dict[int, Tuple[int, InputVC]]] = None
        win_key = win_oport = -1
        win_ivc: Optional[InputVC] = None
        ncand = 0
        cap = self.vc_cap
        rescan = False
        wake_at = -1
        tel = net.stall_tel
        fa = net.faults
        # every candidate, kept for switch-loss attribution from the second
        # one on: a lone candidate wins unopposed
        cands: Optional[List[InputVC]] = None
        for ivc in self.active:
            pkt, avail, ready, key = ivc.q[0]
            if avail == 0:
                if tel is not None and ivc.stall != SERIALIZATION:
                    tel.on_stall(ivc, pkt, SERIALIZATION, cycle)
                continue  # waiting for upstream flits; accept_flit wakes us
            if cycle < ready:
                if wake_at < 0 or ready < wake_at:
                    wake_at = ready  # pipeline dwell: wake exactly then
                if tel is not None and ivc.stall != PIPELINE:
                    tel.on_stall(ivc, pkt, PIPELINE, cycle)
                continue
            oport = ivc.route_out
            if oport < 0:
                oport = net.route(self, pkt)
                if oport < 0:
                    rescan = True
                    if tel is not None and ivc.stall != ROUTE:
                        tel.on_stall(ivc, pkt, ROUTE, cycle)
                    continue  # no admissible output this cycle
                ivc.route_out = oport
            if oport == LOCAL_PORT:
                # ejection: gate new worms on endpoint acceptance.  A closed
                # gate is sleepable: the endpoint calls notify_eject_ready
                # when it drains the capacity the gate was refusing on.
                if ivc.sent == 0 and not net.nics[self.rid].can_eject(pkt):
                    if tel is not None and ivc.stall != EJECT:
                        tel.on_stall(ivc, pkt, EJECT, cycle)
                    continue
            else:
                dvc = ivc.out
                if fa is not None and (self.rid, oport) in net.fault_down:
                    # chosen link is down: hold the worm here and, unless
                    # a VC is already allocated on it, allow a re-route so
                    # the detour tables take over next cycle
                    if dvc is None:
                        ivc.route_out = -1
                    rescan = True
                    if tel is not None and ivc.stall != ROUTE:
                        tel.on_stall(ivc, pkt, ROUTE, cycle)
                    continue
                if dvc is not None:
                    # fast path: established worm, check credit + write lock
                    if dvc.occ >= cap:
                        if tel is not None and ivc.stall != CREDIT:
                            tel.on_stall(ivc, pkt, CREDIT, cycle)
                        continue  # credit stall: downstream drain wakes us
                    owner = dvc.owner
                    if owner is not None and owner is not pkt:
                        if tel is not None and ivc.stall != VC_ALLOC:
                            tel.on_stall(ivc, pkt, VC_ALLOC, cycle)
                        continue  # lock holder streams from *this* router:
                        # its tail (our move) or a drain wakes us
                elif not self._allocate_vc(ivc, oport, pkt):
                    if net.escape_vc_active:
                        # adaptive choice stuck before VC allocation: allow a
                        # re-route next cycle so the escape (DOR) path stays
                        # reachable (deadlock freedom).
                        ivc.route_out = -1
                        rescan = True
                    if tel is not None and ivc.stall != VC_ALLOC:
                        tel.on_stall(ivc, pkt, VC_ALLOC, cycle)
                    continue  # VC-allocation stall: every candidate VC is
                    # held by our own worms or credit-full — a drain or our
                    # own tail delivery wakes us
            ncand += 1
            if winners is None:
                if ncand == 1:
                    win_key, win_ivc, win_oport = key, ivc, oport
                    continue
                winners = {win_oport: (win_key, win_ivc)}
                if tel is not None:
                    cands = [win_ivc]
            if cands is not None:
                cands.append(ivc)
            cur = winners.get(oport)
            if cur is None or key < cur[0]:
                winners[oport] = (key, ivc)
        if ncand == 0:
            self.rescan = rescan
            self.wake_at = wake_at
            return
        self.rescan = True
        if winners is None:
            # single candidate (the dominant exit): wins unopposed
            moves.append((self, win_ivc, win_oport))
            return
        # the crossbar transfers at most one flit per input port and one
        # per output port per cycle (Section II's switch constraints);
        # winners is per-output already, now enforce per-input uniqueness
        taken_inputs = set()
        for oport, (key, ivc) in sorted(
            winners.items(), key=lambda kv: kv[1][0]
        ):
            if ivc.port in taken_inputs:
                if cands is not None:
                    winners[oport] = (key, None)  # this output moves nothing
                continue
            taken_inputs.add(ivc.port)
            moves.append((self, ivc, oport))
        if cands is not None:
            # every candidate that is not its output's moving winner lost
            # switch allocation to a higher-priority worm (or to per-input
            # uniqueness) — charge it so each blocked head worm is billed
            # exactly one class.
            for ivc in cands:
                if (ivc.stall != SWITCH
                        and winners[ivc.route_out][1] is not ivc):
                    tel.on_stall(ivc, ivc.q[0][_PKT], SWITCH, cycle)

    def _allocate_vc(self, ivc: InputVC, oport: int, pkt: Packet) -> bool:
        """Allocate a downstream VC with credit for a worm's header."""
        net = self.net
        vlo, vhi = net.vc_ranges[pkt.net]
        if net.escape_vc_active and oport != net.dor_port(self, pkt):
            vlo += 1  # escape VC is reserved for dimension-order hops
        cap = self.vc_cap
        row = self.downstream[oport]
        for vc in range(vlo, vhi):
            dvc = row[vc]
            if dvc.owner is None and dvc.occ < cap:
                ivc.out = dvc
                return True
        return False

    def _move_flit(self, ivc: InputVC, oport: int, cycle: int) -> None:
        """Apply one move chosen by :meth:`decide` (the only commit path)."""
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
        if oport == LOCAL_PORT:
            if is_tail:
                net.eject_flit(self.rid, pkt, is_tail, cycle)
        else:
            dvc = ivc.out
            dvc.router.accept_flit(dvc, pkt, is_tail, cycle)
            self.link_flits[oport] += 1
            fa = net.faults
            if fa is not None and nsent == 1:
                fa.on_link_head(net, self.rid, oport, pkt)
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
