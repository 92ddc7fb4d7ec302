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
ready_cycle]`` and the router tracks how many flits of the head worm it has
already forwarded.  This gives flit-level bandwidth and blocking behaviour
without per-flit objects.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple

from repro.noc.packet import Packet

#: output/input port index of the local node interface.
LOCAL_PORT = 0

# buffer entry field indices
_PKT, _AVAIL, _READY = 0, 1, 2

# stall-attribution charge indices.  These mirror the first seven entries
# of repro.telemetry.blame.STALL_CLASSES; they are duplicated here (and
# pinned by a test) because the telemetry package imports this module.
_ST_PIPELINE = 0
_ST_ROUTE = 1
_ST_VC_ALLOC = 2
_ST_CREDIT = 3
_ST_SWITCH = 4
_ST_SERIALIZATION = 5
_ST_EJECT = 6


class Router:
    """One NoC router; created and stepped by :class:`PhysicalNetwork`."""

    __slots__ = (
        "rid",
        "net",
        "nports",
        "vcs",
        "vc_cap",
        "pipeline",
        "buf",
        "occ",
        "owner",
        "route_out",
        "out_vc",
        "sent",
        "active",
        "downstream",
        "upstream",
        "flits_routed",
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
        self.buf: List[List[deque]] = [
            [deque() for _ in range(vcs)] for _ in range(nports)
        ]
        self.occ = [[0] * vcs for _ in range(nports)]
        #: worm currently streaming *into* each input VC (write lock).
        self.owner: List[List[Optional[Packet]]] = [
            [None] * vcs for _ in range(nports)
        ]
        #: chosen output port for the head worm of each input VC (-1 unset).
        self.route_out = [[-1] * vcs for _ in range(nports)]
        #: allocated downstream VC for the head worm (-1 unset).
        self.out_vc = [[-1] * vcs for _ in range(nports)]
        #: flits of the head worm already forwarded from this router.
        self.sent = [[0] * vcs for _ in range(nports)]
        #: input VCs that currently hold any worm state, mapped to their
        #: (never empty) buffer deque; kept exact so the network can skip
        #: idle routers entirely (and the arbiter the buffer indexing).
        self.active: Dict[Tuple[int, int], deque] = {}
        #: output port -> (downstream router, downstream input port);
        #: filled in by the network during wiring.  Entry for LOCAL_PORT is
        #: None (ejection goes to the node interface).
        self.downstream: List[Optional[Tuple["Router", int]]] = [None] * nports
        #: router feeding each input port (None for LOCAL_PORT: the NIC).
        #: Each input port has exactly one upstream, so a flit draining
        #: from it is a precise credit event for that neighbour.
        self.upstream: List[Optional["Router"]] = [None] * nports
        #: total flits moved through this router (energy model input).
        self.flits_routed = 0
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

    def accept_flit(self, port: int, vc: int, pkt: Packet, is_tail: bool, cycle: int) -> None:
        """Receive one flit of ``pkt`` into input VC ``(port, vc)``."""
        q = self.buf[port][vc]
        owner_row = self.owner[port]
        if owner_row[vc] is pkt:
            if q and q[-1][_PKT] is pkt:
                q[-1][_AVAIL] += 1
            else:
                # continuation of a worm whose buffered flits already
                # drained: the path is established, body flits flow
                # without re-paying the router pipeline
                q.append([pkt, 1, cycle])
                self.active[(port, vc)] = q
        else:
            # header flit of a new worm in this VC
            q.append([pkt, 1, cycle + self.pipeline])
            owner_row[vc] = pkt
            self.active[(port, vc)] = q
            # telemetry: head arrival (once per worm, at its destination
            # router only) and the pipeline-dwell stall record.  The dwell
            # record opens *here*, not in arbitration: the router sleeps
            # through the dwell on a timed wake and would otherwise never
            # observe it, while a router kept awake re-observes it every
            # cycle as a no-op — opening at arrival keeps both charges equal.
            # The worm is first visible to per-cycle accounting at cycle+1.
            tel = self.net.telemetry
            if tel is not None and pkt.dst == self.rid:
                tel.on_head(pkt, cycle)
            stel = self.net.stall_tel
            if stel is not None and self.pipeline and len(q) == 1:
                stel.on_stall(self, port, vc, pkt, _ST_PIPELINE, cycle + 1)
        self.occ[port][vc] += 1
        if is_tail:
            owner_row[vc] = None
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

    def free_flits(self, port: int) -> int:
        """Total free buffer space on an input port (congestion metric)."""
        occ = self.occ[port]
        return self.vc_cap * self.vcs - sum(occ)

    def buffered_flits(self) -> int:
        return sum(sum(row) for row in self.occ)

    # ------------------------------------------------------------------
    # per-cycle switch traversal
    # ------------------------------------------------------------------

    def decide(self, cycle: int, net: "PhysicalNetwork", moves: List) -> None:
        """One switch-allocation pass: the *decide* half of the per-cycle
        contract (DESIGN.md, "Per-cycle NoC contract").

        Admits candidates and picks winners against the state left by the
        previous pass, and *appends* ``(router, iport, ivc, oport, queue)``
        to ``moves`` instead of moving anything: the fabric applies every
        router's moves afterwards (:meth:`_move_flit`), so all routers
        arbitrate against the same start-of-pass state and no flit or
        credit ripples through several routers within one pass.  VC
        allocations (``out_vc``) are made here and persist even when the
        worm then loses switch allocation.

        ``self.rescan``/``self.wake_at`` classify the outcome so the
        network can skip this router until something can change: worms
        dwelling in the router pipeline wake at a known cycle; worms
        waiting for upstream flits, downstream credit or an ejection gate
        wake on ``accept_flit``, the drain-wake in ``_move_flit`` or
        ``notify_eject_ready``; route failures, dead links and adaptive
        re-routes — and any pass that produced a move — force a rescan.
        """
        # output port -> (priority key, iport, ivc); built lazily — the
        # overwhelmingly common case is zero or one candidate.
        winners: Optional[Dict[int, Tuple[int, int, int, deque]]] = None
        win_key = win_iport = win_ivc = win_oport = -1
        win_q: Optional[deque] = None
        ncand = 0
        route_out = self.route_out
        out_vc = self.out_vc
        sent = self.sent
        downstream = self.downstream
        rescan = False
        wake_at = -1
        tel = net.stall_tel
        fa = net.faults
        cands = None if tel is None else []
        for (iport, ivc), q in self.active.items():
            head = q[0]
            if head[_AVAIL] == 0:
                if tel is not None:
                    tel.on_stall(
                        self, iport, ivc, head[_PKT], _ST_SERIALIZATION, cycle
                    )
                continue  # waiting for upstream flits; accept_flit wakes us
            ready = head[_READY]
            if cycle < ready:
                if wake_at < 0 or ready < wake_at:
                    wake_at = ready  # pipeline dwell: wake exactly then
                if tel is not None:
                    tel.on_stall(self, iport, ivc, head[_PKT], _ST_PIPELINE, cycle)
                continue
            pkt: Packet = head[_PKT]
            oport = route_out[iport][ivc]
            if oport < 0:
                oport = net.route(self, pkt)
                if oport < 0:
                    rescan = True
                    if tel is not None:
                        tel.on_stall(self, iport, ivc, pkt, _ST_ROUTE, cycle)
                    continue  # no admissible output this cycle
                route_out[iport][ivc] = oport
            if oport == LOCAL_PORT:
                # ejection: gate new worms on endpoint acceptance.  A closed
                # gate is sleepable: the endpoint calls notify_eject_ready
                # when it drains the capacity the gate was refusing on.
                if sent[iport][ivc] == 0 and not net.nics[self.rid].can_eject(pkt):
                    if tel is not None:
                        tel.on_stall(self, iport, ivc, pkt, _ST_EJECT, cycle)
                    continue
            else:
                if fa is not None and (self.rid, oport) in net.fault_down:
                    # chosen link is down: hold the worm here and, unless
                    # a VC is already allocated on it, allow a re-route so
                    # the detour tables take over next cycle
                    if out_vc[iport][ivc] < 0:
                        route_out[iport][ivc] = -1
                    rescan = True
                    if tel is not None:
                        tel.on_stall(self, iport, ivc, pkt, _ST_ROUTE, cycle)
                    continue
                ovc = out_vc[iport][ivc]
                down, dport = downstream[oport]
                if ovc >= 0:
                    # fast path: established worm, check credit + write lock
                    if down.occ[dport][ovc] >= down.vc_cap:
                        if tel is not None:
                            tel.on_stall(self, iport, ivc, pkt, _ST_CREDIT, cycle)
                        continue  # credit stall: downstream drain wakes us
                    owner = down.owner[dport][ovc]
                    if owner is not None and owner is not pkt:
                        if tel is not None:
                            tel.on_stall(
                                self, iport, ivc, pkt, _ST_VC_ALLOC, cycle
                            )
                        continue  # lock holder streams from *this* router:
                        # its tail (our move) or a drain wakes us
                elif not self._allocate_vc(iport, ivc, oport, pkt, down, dport):
                    if net.escape_vc_active and out_vc[iport][ivc] < 0:
                        # adaptive choice stuck before VC allocation: allow a
                        # re-route next cycle so the escape (DOR) path stays
                        # reachable (deadlock freedom).
                        route_out[iport][ivc] = -1
                        rescan = True
                    if tel is not None:
                        tel.on_stall(self, iport, ivc, pkt, _ST_VC_ALLOC, cycle)
                    continue  # VC-allocation stall: every candidate VC is
                    # held by our own worms or credit-full — a drain or our
                    # own tail delivery wakes us
            ncand += 1
            if cands is not None:
                cands.append((iport, ivc, pkt))
            if winners is None:
                if ncand == 1:
                    # priority packed into one int: class-major, then age
                    # (pid is monotone and far below 2**48), identical
                    # ordering to the (cls, pid) tuple without allocating
                    win_key = (pkt.cls << 48) | pkt.pid
                    win_iport, win_ivc, win_oport = iport, ivc, oport
                    win_q = q
                    continue
                winners = {win_oport: (win_key, win_iport, win_ivc, win_q)}
            key = (pkt.cls << 48) | pkt.pid
            cur = winners.get(oport)
            if cur is None or key < cur[0]:
                winners[oport] = (key, iport, ivc, q)
        if ncand == 0:
            self.rescan = rescan
            self.wake_at = wake_at
            return
        self.rescan = True
        if winners is None:
            # single candidate (the dominant exit): wins unopposed
            moves.append((self, win_iport, win_ivc, win_oport, win_q))
            return
        # the crossbar transfers at most one flit per input port and one
        # per output port per cycle (Section II's switch constraints);
        # winners is per-output already, now enforce per-input uniqueness
        taken_inputs = set()
        moved_vcs = None if tel is None else set()
        for oport, (key, iport, ivc, q) in sorted(
            winners.items(), key=lambda kv: kv[1][0]
        ):
            if iport in taken_inputs:
                continue
            taken_inputs.add(iport)
            moves.append((self, iport, ivc, oport, q))
            if moved_vcs is not None:
                moved_vcs.add((iport, ivc))
        if tel is not None:
            # every candidate that did not move lost switch allocation to
            # a higher-priority worm (or to per-input uniqueness) — charge
            # it so each blocked head worm is billed exactly one class.
            for iport, ivc, pkt in cands:
                if (iport, ivc) not in moved_vcs:
                    tel.on_stall(self, iport, ivc, pkt, _ST_SWITCH, cycle)

    def _allocate_vc(
        self, iport: int, ivc: int, oport: int, pkt: Packet, down, dport
    ) -> bool:
        """Allocate a downstream VC with credit for a worm's header."""
        vlo, vhi = self.net.vc_ranges[pkt.net]
        escape_only_dor = self.net.escape_vc_active
        for vc in range(vlo, vhi):
            if escape_only_dor and vc == vlo and oport != self.net.dor_port(self, pkt):
                continue  # escape VC is reserved for dimension-order hops
            if down.owner[dport][vc] is None and down.occ[dport][vc] < down.vc_cap:
                self.out_vc[iport][ivc] = vc
                return True
        return False

    def _move_flit(
        self, iport: int, ivc: int, oport: int, cycle: int, q: deque
    ) -> None:
        """Apply one move chosen by :meth:`decide` (the only commit path)."""
        net = self.net
        tel = net.stall_tel
        if tel is not None:
            tel.on_advance(self, iport, ivc, cycle)
        head = q[0]
        pkt: Packet = head[_PKT]
        head[_AVAIL] -= 1
        self.occ[iport][ivc] -= 1
        sent_row = self.sent[iport]
        nsent = sent_row[ivc] + 1
        sent_row[ivc] = nsent
        self.flits_routed += 1
        # drain-wake: freeing a buffer slot is the credit event the (unique)
        # upstream feeder of this input port may be sleeping on
        up = self.upstream[iport]
        if up is not None and up.active and up.rid not in net._active_ids:
            net.mark_router_active(up.rid)
        is_tail = nsent == pkt.size_flits
        if oport == LOCAL_PORT:
            if is_tail:
                net.eject_flit(self.rid, pkt, is_tail, cycle)
        else:
            down, dport = self.downstream[oport]
            ovc = self.out_vc[iport][ivc]
            down.accept_flit(dport, ovc, pkt, is_tail, cycle)
            net.link_flits[self.rid][oport] += 1
            fa = net.faults
            if fa is not None and nsent == 1:
                fa.on_link_head(net, self.rid, oport, pkt)
        if is_tail:
            pkt.hops += 1
            q.popleft()
            self.route_out[iport][ivc] = -1
            self.out_vc[iport][ivc] = -1
            sent_row[ivc] = 0
            if not q:
                self.active.pop((iport, ivc), None)
