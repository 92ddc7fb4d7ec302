"""Node interfaces (NICs): injection queues, ejection and delegation hooks.

Each node owns one :class:`NodeInterface` with a per-network injection
queue.  Compute nodes use packet-count-bounded queues; memory nodes use a
flit-bounded *reply injection buffer* — the resource whose exhaustion is the
paper's definition of a *blocked* memory node (Figure 3).

The memory-node NIC implements the two scheduler behaviours the paper
builds on:

* CPU replies are selected before GPU replies (priority-based scheduling is
  only effective once replies actually reach this buffer — Section II): the
  reply queue is kept in ``(cls, pid)`` order as replies are queued, so its
  head *is* the scheduler's choice, and
* when the reply network cannot accept a flit this cycle, the oldest
  *delegatable* reply — one whose ``delegate_to`` names a GPU core — is
  converted into a 1-flit delegated request on the (under-utilised)
  request network (Figure 4).  Which replies are delegatable is the
  memory node's decision (:mod:`repro.sim.memory_node`); the NIC runs
  the conversion under the ``DelegationConfig`` it is given by
  :meth:`MemoryNodeNic.set_delegation`.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, NamedTuple, Optional, Tuple

from repro.config.system import DelegationConfig
from repro.noc.packet import (
    CPU_CLS, DELEGATED_REQ, GPU_CLS, REPLY_NET, REQUEST_NET, NetKind, Packet,
    TrafficClass,
)
from repro.noc.router import _AVAIL, InputVC, Router

#: both network kinds, in injection order (hoisted off the hot path)
_NET_KINDS = (REQUEST_NET, REPLY_NET)
#: a shared injection link's order on odd cycles (reply first)
_REPLY_FIRST = (REPLY_NET, REQUEST_NET)


class InjectRow(NamedTuple):
    """What a NIC feeds on one network kind, built once by ``NocFabric``
    at wiring: the local router's ``LOCAL_PORT`` input VCs in the kind's
    ``vc_ranges`` slice, lowest first (one whose ``owner`` is set carries
    a worm of this NIC mid-injection; several can, which lets a
    2x-bandwidth link carry two), that router, its network and the VCs'
    credit cap."""

    row: List[InputVC]
    router: Router
    net: "PhysicalNetwork"
    cap: int


class NodeInterface:
    """Injection/ejection interface of a compute (CPU or GPU) node."""

    #: the network kind whose queue a subclass bounds by its own rule, so
    #: ``try_send`` must not apply the packet bound to it (none here)
    _flit_bounded: Optional[NetKind] = None

    def __init__(self, node_id: int, fabric, queue_packets: int) -> None:
        self.node_id = node_id
        self.fabric = fabric
        self.queue_packets = queue_packets
        self.queues: Dict[NetKind, Deque[Packet]] = {REQUEST_NET: deque(), REPLY_NET: deque()}
        #: the VCs this NIC feeds, one record per network kind indexed by
        #: the kind; set by ``NocFabric`` at wiring (object kernel only)
        self.rows: Tuple[InjectRow, ...] = ()
        #: called with (packet, cycle) when a packet is fully ejected here.
        self.handler: Optional[Callable[[Packet, int], None]] = None
        #: the core asleep on this NIC's full request queue (None: none);
        #: the next pop of that queue wakes it (DESIGN.md §6.3)
        self.sleeper = None
        #: attached :class:`~repro.telemetry.collector.TelemetryCollector`
        #: (None when telemetry is disabled; every hook site is one check).
        self.telemetry = None
        #: attached :class:`~repro.faults.controller.FaultController`
        #: retransmit guard (None unless a fault plan with events is
        #: installed; same single-check gating as telemetry).
        self.fault_guard = None
        #: optional admission control for ejection (e.g. a full FRQ refuses
        #: delegated requests, back-pressuring the request network); see the
        #: ``eject_gate`` property below.
        self._eject_gate_fn: Optional[Callable[[Packet], bool]] = None
        self.flits_injected_net: Dict[NetKind, int] = {REQUEST_NET: 0, REPLY_NET: 0}
        self.packets_sent_net: Dict[NetKind, int] = {REQUEST_NET: 0, REPLY_NET: 0}
        self.flits_received: Dict[TrafficClass, int] = {CPU_CLS: 0, GPU_CLS: 0}
        self.data_flits_received = 0

    @property
    def flits_injected(self) -> int:
        by_net = self.flits_injected_net
        return by_net[REQUEST_NET] + by_net[REPLY_NET]

    # -- endpoint-facing API -------------------------------------------

    def queued(self, net: NetKind) -> int:
        """Packets waiting in ``net``'s injection queue (not yet started)."""
        return len(self.queues[net])

    def can_enqueue(self, net: NetKind) -> bool:
        return len(self.queues[net]) < self.queue_packets

    def try_send(self, pkt: Packet, cycle: int) -> bool:
        """Queue ``pkt`` for injection; False if the queue is full.

        The one send path of both backends, and the hottest endpoint call
        of a saturated run: the packet bound is checked in line.
        """
        net = pkt.net
        q = self.queues[net]
        depth = len(q)
        if depth >= self.queue_packets and net is not self._flit_bounded:
            return False
        if pkt.created < 0:
            pkt.created = cycle
        q.append(pkt)
        self.packets_sent_net[net] += 1
        if not depth:
            # a sleeping NIC's queue heads cannot start; a packet queued
            # behind one changes nothing, a first packet may start now
            self.fabric.mark_nic_active(self.node_id)
        if self.telemetry is not None:
            self.telemetry.on_inject(pkt, cycle)
        if self.fault_guard is not None:
            self.fault_guard.on_send(self.node_id, pkt, cycle)
        return True

    # -- ejection (called by the network) ------------------------------

    @property
    def eject_gate(self) -> Optional[Callable[[Packet], bool]]:
        return self._eject_gate_fn

    @eject_gate.setter
    def eject_gate(self, fn: Optional[Callable[[Packet], bool]]) -> None:
        # swapping or removing a gate can open the ejection path, and local
        # routers may be sleeping on the old gate's refusal — wake them so
        # the active-set scheduler re-evaluates gated worms
        old = self._eject_gate_fn
        self._eject_gate_fn = fn
        if old is not None and fn is not old:
            self.notify_eject_ready()

    def can_eject(self, pkt: Packet) -> bool:
        """Whether a new worm destined here may start ejecting."""
        gate = self._eject_gate_fn
        if gate is not None:
            return gate(pkt)
        return True

    def notify_eject_ready(self) -> None:
        """Endpoints call this when a closed ejection gate may have
        reopened (e.g. the LLC input queue or the FRQ drained a slot);
        sleeping local routers then re-arbitrate their gated worms."""
        self.fabric.wake_node_routers(self.node_id)

    def deliver(self, pkt: Packet, cycle: int) -> None:
        if self.fault_guard is not None:
            self.fault_guard.on_deliver(self.node_id, pkt, cycle)
        self.flits_received[pkt.cls] += pkt.size_flits
        if pkt.size_flits > 1:
            self.data_flits_received += pkt.size_flits - 1
        if self.handler is not None:
            self.handler(pkt, cycle)

    # -- injection (called by the fabric each cycle) --------------------

    def wake_sleeper(self) -> None:
        """The request queue popped: the sleeping core may issue again."""
        self.sleeper.wake()
        self.sleeper = None

    def inject_step(self, cycle: int) -> int:
        """Inject this cycle's flits; returns how many moved.  A NIC that
        moved none waits on a local-port drain or a first ``try_send``,
        so the fabric lets it sleep until one wakes it."""
        fabric = self.fabric
        if fabric.separate_networks:
            bandwidth = fabric.bandwidth
            return (self._inject_net(REQUEST_NET, cycle, bandwidth)
                    + self._inject_net(REPLY_NET, cycle, bandwidth))
        # one physical network: the injection link is shared, so the two
        # queues share the per-cycle flit budget (reply first on odd
        # cycles to avoid starvation).
        budget = fabric.bandwidth
        for net in _REPLY_FIRST if cycle & 1 else _NET_KINDS:
            if budget <= 0:
                break
            budget -= self._inject_net(net, cycle, budget)
        return fabric.bandwidth - budget

    def _inject_net(self, net: NetKind, cycle: int, budget: int) -> int:
        """Push up to ``budget`` flits into the local router.

        In-flight worms (one per VC) push one flit each; remaining budget
        starts new packets from the queue on free VCs.  Returns the number
        of flits pushed.
        """
        row, _router, phys, cap = self.rows[net]
        accept = phys.accept
        pushed_now = 0
        # continue in-flight worms first (wormhole: must finish): the VCs
        # of the range this NIC holds the write lock of, walked lowest VC
        # first — deterministic from current state alone, as the vector
        # backend implements.  The flits already pushed are the worm's
        # (last) entry, plus those forwarded when it is also the head.
        for ivc in row:
            pkt = ivc.owner
            if pkt is None or ivc.occ >= cap:
                continue
            if budget <= 0:
                break
            q = ivc.q
            entry = q[-1]
            pushed = entry[_AVAIL] + ivc.sent if entry is q[0] else entry[_AVAIL]
            accept(ivc, pkt, pushed + 1 == pkt.size_flits, cycle)
            pushed_now += 1
            budget -= 1
        # start new worms from the queue head, each on the lowest VC of
        # the range that has no owner and has credit
        queue = self.queues[net]
        while budget > 0 and queue:
            for ivc in row:
                if ivc.owner is None and ivc.occ < cap:
                    break
            else:
                break  # no startable VC
            pkt = queue.popleft()
            if self.sleeper is not None and net is REQUEST_NET:
                self.wake_sleeper()
            pkt.injected = cycle
            if self.telemetry is not None:
                self.telemetry.on_vc_alloc(pkt, cycle, ivc.vc)
            accept(ivc, pkt, pkt.size_flits == 1, cycle)
            pushed_now += 1
            budget -= 1
        if pushed_now:
            self.flits_injected_net[net] += pushed_now
        return pushed_now


class MemoryNodeNic(NodeInterface):
    """Memory-node NIC with a flit-bounded reply injection buffer.

    Both backends run this class's ``try_send`` / ``can_enqueue`` /
    ``_delegate_scan``; the vector backend's subclass only moves the
    per-cycle accounting fields into kernel array rows.
    """

    #: replies are admitted by ``can_enqueue``'s flit rule alone
    _flit_bounded = REPLY_NET

    def __init__(
        self, node_id: int, fabric, queue_packets: int, reply_buffer_flits: int
    ) -> None:
        super().__init__(node_id, fabric, queue_packets)
        self.reply_buffer_flits = reply_buffer_flits
        #: flits of the largest reply this node sends: a reply is admitted
        #: only while one of these still fits.  ``MemoryNode`` sets it from
        #: its config; 9 is a 128 B line on the default 16 B channel.
        self.worst_reply_flits = 9
        self.blocked_cycles = 0
        self.delegations = 0
        #: the Delegated Replies settings this NIC runs (None: it never
        #: delegates); set only through ``set_delegation``
        self.delegation: Optional[DelegationConfig] = None
        #: whether to delegate only when the reply path is blocked — the
        #: one setting the per-cycle trigger reads
        self.delegate_only_when_blocked = True
        #: reply-buffer occupancy in flits, maintained incrementally:
        #: +size on enqueue, -1 per injected reply flit, -size on
        #: delegation.  Equals queued flits plus un-injected in-flight
        #: flits, without rescanning the queue on every admission check.
        self._reply_occ = 0
        #: a delegatable reply may be queued: set when one is sent, cleared
        #: by a scan that reaches the end of the queue
        self._delegatable = False
        #: delegation scans of the reply queue actually run
        self.delegation_scans = 0

    def set_delegation(self, cfg: Optional[DelegationConfig]) -> None:
        """Run Delegated Replies under ``cfg``; None: never delegate."""
        self.delegation = cfg
        self.delegate_only_when_blocked = cfg is None or cfg.only_when_blocked

    def try_send(self, pkt: Packet, cycle: int) -> bool:
        if pkt.net is REPLY_NET and not self.can_enqueue(REPLY_NET):
            return False
        ok = super().try_send(pkt, cycle)
        if ok and pkt.net is REPLY_NET:
            self._reply_occ += pkt.size_flits
            # the injection-buffer scheduler prioritises CPU replies: sink
            # the new reply to its (cls, pid) place, so the FIFO head is
            # always the packet the scheduler would pick.  Only GPU replies
            # are delegatable and they stay in age order among themselves.
            q = self.queues[REPLY_NET]
            key = (pkt.cls, pkt.pid)
            last = i = len(q) - 1
            while i and (q[i - 1].cls, q[i - 1].pid) > key:
                i -= 1
            if i != last:
                q.pop()
                q.insert(i, pkt)
            if pkt.delegate_to is not None:
                self._delegatable = True
        return ok

    def can_enqueue(self, net: NetKind) -> bool:
        if net is REPLY_NET:
            # strict admission: the next (worst-case) reply must fit
            # entirely; a buffer that cannot take one more reply is what the
            # paper calls a *blocked* memory node (Figure 3).
            return (
                self.reply_buffer_flits - self._reply_occ
                >= self.worst_reply_flits
            )
        return super().can_enqueue(net)

    def inject_step(self, cycle: int) -> bool:
        # always True (never asleep): the blocked-cycle count and the
        # delegation trigger run every cycle, queues empty or not.
        # The delegation trigger must observe *reply-network* progress only:
        # a cycle where a delegated 1-flit request injects while the reply
        # router refuses every flit is exactly the "blocked" case of Fig. 4.
        before = self.flits_injected_net[REPLY_NET]
        super().inject_step(cycle)
        moved = self.flits_injected_net[REPLY_NET] - before
        self._reply_occ -= moved
        # the memory node "cannot inject reply traffic" when its injection
        # buffer is full (it is blocked, Figure 3) or when the reply router
        # refused every flit this cycle (Figure 4, cycles 1-2)
        if self._delegatable and not (
            self.delegate_only_when_blocked
            and moved
            and self.can_enqueue(REPLY_NET)
        ):
            self._delegate_scan(cycle)
        if not self.can_enqueue(REPLY_NET):
            self.blocked_cycles += 1
        return True

    def _delegate_scan(self, cycle: int) -> None:
        """Convert the oldest delegatable queued replies into 1-flit
        delegated requests: at most ``max_delegations_per_cycle``, and only
        while the request queue has room."""
        dr = self.delegation
        if dr is None:
            return
        self.delegation_scans += 1
        requests = self.queues[REQUEST_NET]
        queue = self.queues[REPLY_NET]
        done = 0
        for pkt in list(queue):
            # packets mid-injection are no longer in the queue, so every
            # queued reply is still whole and safe to delegate
            if pkt.delegate_to is None:
                continue
            if (
                done >= dr.max_delegations_per_cycle
                or len(requests) >= self.queue_packets
            ):
                return  # candidates remain: stay marked
            delegated = Packet(
                src=pkt.src,              # injected at the memory node ...
                dst=pkt.delegate_to,      # ... towards the likely sharer
                mtype=DELEGATED_REQ,
                cls=GPU_CLS,
                size_flits=1,
                block=pkt.block,
                requester=pkt.dst,        # the paper encodes the requesting
                                          # core as the sender ID
                created=cycle,
            )
            queue.remove(pkt)
            self._reply_occ -= pkt.size_flits
            # the reply never enters the reply network: undo its enqueue-time
            # accounting so noc.rep_packets counts actual reply traffic
            self.packets_sent_net[REPLY_NET] -= 1
            requests.append(delegated)
            self.packets_sent_net[REQUEST_NET] += 1
            self.delegations += 1
            done += 1
            if self.telemetry is not None:
                self.telemetry.on_delegate(pkt, delegated, cycle)
        self._delegatable = False
