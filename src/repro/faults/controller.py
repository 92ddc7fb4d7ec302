"""The fault controller: event application, detection and recovery.

One :class:`FaultController` per :class:`~repro.sim.system.HeterogeneousSystem`
owns the live fault state and every recovery mechanism:

* **Event application** — the plan's timed events mutate per-network fault
  state: a link-health mask (``net.fault_down``), a frozen-router set
  (``net.fault_frozen``) and per-link loss probabilities.
* **Degraded-mode routing** — whenever the link mask changes, the
  network's next-hop tables are rebuilt (:func:`repro.noc.routing.route_tables`:
  up*/down* routes over the healthy links, deadlock-free at any VC count),
  so detours cost the hot path nothing; a reachability check fails fast
  (:class:`~repro.noc.routing.PartitionedTopologyError`) on partitioned
  meshes.  While a mask is dirty, adaptive routing follows the same
  healthy tables.  After a ``LinkUp`` the packets already in flight finish
  on the tables they were routed on (:class:`~repro.noc.routing.TableSwitch`)
  and later ones take the new tables; adaptivity resumes once the old
  packets are gone and no link is down.
* **Loss injection** — each packet is sampled once per lossy link at
  head-flit traversal, against a dedicated seeded RNG stream.  Damaged
  packets keep consuming bandwidth and are discarded by the CRC-style
  check at ejection (:meth:`discard_on_eject`), i.e. the receiver never
  sees them.
* **Retransmit guard** — every request send registers a ``(requester,
  read/write, block)`` entry cleared by the matching data reply / write
  ack at the requester's NIC.  Expired entries retransmit with capped
  exponential backoff; GPU reads retransmit as *Do-Not-Forward* requests,
  so the recovery reply is always served directly by the LLC (the paper's
  existing DNF path) even when the original reply was lost mid-delegation.
  Entries that exhaust ``max_retries`` are counted ``lost``.
* **Watchdog** — every ``watchdog_interval`` cycles, a router holding
  buffered flits whose routed-flit counter has not moved for
  ``watchdog_checks`` consecutive checks trips a ``fault_stall`` telemetry
  event; outstanding requests are expired on the spot so reads fall back
  to direct LLC replies instead of waiting out the backoff ladder.

Everything is gated exactly like telemetry: hook sites check one
attribute (``net.faults`` / ``nic.fault_guard``) that is ``None`` when no
plan is installed, so fault support costs the fault-free hot path a single
``is not None`` per site.
"""

from __future__ import annotations

import itertools
import random
from heapq import heappop, heappush
from typing import Dict, List, Optional, Set, Tuple

from repro.faults.plan import (
    FaultPlan,
    FlitDrop,
    LinkDown,
    LinkUp,
    RouterFreeze,
    sorted_events,
)
from repro.noc.packet import MessageType, Packet, TrafficClass
from repro.noc.routing import (
    PartitionedTopologyError, TableSwitch, route_tables,
)

__all__ = ["FaultController", "PartitionedTopologyError", "quiesce"]

# retransmit-guard groups
_READ, _WRITE = 0, 1

# guard-entry field indices: first send cycle, attempts, deadline,
# traffic class, size in flits, original destination
_E_FIRST, _E_ATTEMPTS, _E_DEADLINE, _E_CLS, _E_SIZE, _E_DST = range(6)

#: request types whose answer is a data reply to the *requester* (a DNF
#: sent by a delegate on another core's behalf refreshes the requester's
#: entry, never its own).
_TRACKED_READS = frozenset(
    (MessageType.READ_REQ, MessageType.DNF_REQ, MessageType.PROBE_REQ)
)


class FaultController:
    """Live fault state + recovery machinery for one system."""

    def __init__(
        self,
        plan: FaultPlan,
        fabric,
        addr_map,
        gpu_nodes: Set[int],
        telemetry=None,
    ) -> None:
        self.plan = plan
        self.fabric = fabric
        self.addr_map = addr_map
        self.gpu_nodes = set(gpu_nodes)
        self.telemetry = telemetry
        self._rng = random.Random(plan.seed)
        self._events = sorted_events(plan.events)
        self._next_ev = 0
        self._seq = itertools.count()
        #: deferred RouterFreeze thaws: (cycle, seq, net_name, rid)
        self._thaws: List[Tuple[int, int, str, int]] = []
        #: (net, TableSwitch) while packets from before a LinkUp still
        #: finish on the tables they started on
        self._switching: List[Tuple] = []
        nets = fabric._net_list
        self._nets = nets
        self._net_by_name = {net.name: net for net in nets}
        #: per-net down-link masks; the *same set objects* are installed as
        #: ``net.fault_down`` so the router check needs no indirection
        self._down: Dict[str, Set[Tuple[int, int]]] = {
            net.name: set() for net in nets
        }
        self._frozen: Dict[str, Set[int]] = {net.name: set() for net in nets}
        #: per-net per-directed-link loss probability
        self._lossy: Dict[str, Dict[Tuple[int, int], float]] = {}
        #: pids of damaged packets still in flight
        self._damaged: Set[int] = set()
        #: retransmit guard: (node, group, block) -> entry list
        self._entries: Dict[Tuple[int, int, int], List] = {}
        self._heap: List[Tuple[int, int, Tuple[int, int, int]]] = []
        #: watchdog per-net {rid: [last_flits_routed, strikes]}
        self._strikes: Dict[str, Dict[int, List[int]]] = {
            net.name: {} for net in nets
        }
        # counters (window-diffable: all monotone)
        self.drops = 0
        self.discarded = 0
        self.retransmits = 0
        self.fallback_dnfs = 0
        self.recovered = 0
        self.lost = 0
        self.watchdog_fires = 0
        self.links_downed = 0
        #: send-to-answer latencies (cycles) of requests that needed at
        #: least one retransmit — the recovery-time distribution
        self.recovery_samples: List[int] = []
        self._install()

    # -- installation ---------------------------------------------------

    def _install(self) -> None:
        self.fabric.faults = self
        for net in self._nets:
            net.faults = self
            net.fault_down = self._down[net.name]
            net.fault_frozen = self._frozen[net.name]
        if self.plan.events:
            # an event-free plan arms nothing per-packet: the guard stays
            # detached so fault-capable runs without faults stay
            # bit-identical to plain runs
            for nic in self.fabric.nics:
                nic.fault_guard = self

    # -- per-cycle driver (called by HeterogeneousSystem.step) ----------

    def on_cycle(self, cycle: int) -> None:
        events = self._events
        i = self._next_ev
        if i < len(events) and events[i].at <= cycle:
            while i < len(events) and events[i].at <= cycle:
                self._apply(events[i], cycle)
                i += 1
            self._next_ev = i
        thaws = self._thaws
        while thaws and thaws[0][0] <= cycle:
            _, _, name, rid = heappop(thaws)
            self._thaw(name, rid)
        for net, switch in self._switching[:]:
            if not switch.pending(net):
                self._switching.remove((net, switch))
                net.set_route_tables(
                    net.tables, None if self._down[net.name] else net.routing
                )
        if self._heap and self._heap[0][0] <= cycle:
            self._service_timeouts(cycle)
        interval = self.plan.watchdog_interval
        if interval and cycle and cycle % interval == 0:
            self._watchdog(cycle)

    # -- event application ----------------------------------------------

    def _nets_for(self, name: str):
        if name == "request":
            return (self.fabric.request_net,)
        if name == "reply":
            return (self.fabric.reply_net,)
        return self._nets

    def _ports(self, net, a: int, b: int, bidir: bool):
        port_of = net.topology.port_of
        try:
            ports = [(a, port_of[a][b])]
            if bidir:
                ports.append((b, port_of[b][a]))
        except KeyError:
            raise ValueError(
                f"fault names link {a}<->{b}, but those routers are not "
                f"adjacent in the {net.name} network"
            ) from None
        return ports

    def _apply(self, ev, cycle: int) -> None:
        if isinstance(ev, LinkDown):
            for net in self._nets_for(ev.net):
                self._down[net.name].update(
                    self._ports(net, ev.a, ev.b, ev.bidir)
                )
                self.links_downed += 1
                self._refresh_link_state(net, cycle, went_down=True)
        elif isinstance(ev, LinkUp):
            for net in self._nets_for(ev.net):
                down = self._down[net.name]
                for key in self._ports(net, ev.a, ev.b, ev.bidir):
                    down.discard(key)
                self._refresh_link_state(net, cycle, went_down=False)
        elif isinstance(ev, RouterFreeze):
            for net in self._nets_for(ev.net):
                self._frozen[net.name].add(ev.router)
                net.mark_router_active(ev.router)
                heappush(
                    self._thaws,
                    (ev.at + ev.cycles, next(self._seq), net.name, ev.router),
                )
        elif isinstance(ev, FlitDrop):
            for net in self._nets_for(ev.net):
                lossy = self._lossy.setdefault(net.name, {})
                for key in self._ports(net, ev.a, ev.b, ev.bidir):
                    if ev.p:
                        lossy[key] = ev.p
                    else:
                        lossy.pop(key, None)
        else:  # pragma: no cover - plan validation catches this earlier
            raise TypeError(f"unknown fault event {ev!r}")

    def _thaw(self, net_name: str, rid: int) -> None:
        net = self._net_by_name[net_name]
        self._frozen[net_name].discard(rid)
        self._wake_all(net)

    def _refresh_link_state(self, net, cycle: int, went_down: bool) -> None:
        # raises PartitionedTopologyError on a partitioned net
        tables = route_tables(net.topology, net.cfg, self._down[net.name])
        self._switching = [(n, s) for n, s in self._switching if n is not net]
        if went_down:  # every head re-routes: the old tables may cross the link
            net.set_route_tables(tables)
        else:  # a worm turning from one table onto the other could close a cycle
            switch = TableSwitch(net.topology, net.tables, cycle)
            net.set_route_tables(tables, switch)
            self._switching.append((net, switch))
        self._wake_all(net)

    def _wake_all(self, net) -> None:
        # link/freeze state changes can unblock (or block) any worm in the
        # net, including ones whose router sleeps without a timed wake
        for router in net.routers:
            if router.active:
                net.mark_router_active(router.rid)

    # -- hooks from the NoC hot path (gated on ``net.faults``) -----------

    def on_link_head(self, net, rid: int, oport: int, pkt: Packet) -> None:
        """Sample loss for ``pkt``'s head flit crossing ``(rid, oport)``."""
        lossy = self._lossy.get(net.name)
        if not lossy:
            return
        p = lossy.get((rid, oport))
        if p is None or pkt.pid in self._damaged:
            return
        if self._rng.random() < p:
            self._damaged.add(pkt.pid)
            self.drops += 1

    def discard_on_eject(self, pkt: Packet, rid: int, cycle: int) -> bool:
        """CRC-style check at ejection: True = packet damaged, discard.

        A discarded packet is never delivered (no delivery accounting, no
        handler call), so the requester's guard entry stays open and the
        timeout path answers the request instead.
        """
        if pkt.pid not in self._damaged:
            return False
        self._damaged.remove(pkt.pid)
        self.discarded += 1
        tel = self.telemetry
        if tel is not None:
            tel.on_fault_event({
                "rec": "fault",
                "fault": "flit_drop",
                "pid": pkt.pid,
                "mtype": int(pkt.mtype),
                "node": rid,
                "cycle": cycle,
            })
        return True

    # -- retransmit guard (gated on ``nic.fault_guard``) -----------------

    def on_send(self, node: int, pkt: Packet, cycle: int) -> None:
        mt = pkt.mtype
        if mt in _TRACKED_READS:
            requester = pkt.requester
            key = (
                requester if requester is not None else pkt.src,
                _READ,
                pkt.block,
            )
        elif mt is MessageType.WRITE_REQ:
            key = (pkt.src, _WRITE, pkt.block)
        else:
            return
        entries = self._entries
        if key in entries:
            return  # refresh-free: the oldest send owns the deadline
        entry = [
            cycle, 0, cycle + self.plan.request_timeout,
            pkt.cls, pkt.size_flits, pkt.dst,
        ]
        entries[key] = entry
        heappush(self._heap, (entry[_E_DEADLINE], next(self._seq), key))

    def on_deliver(self, node: int, pkt: Packet, cycle: int) -> None:
        mt = pkt.mtype
        if mt is MessageType.READ_REPLY or mt is MessageType.C2C_REPLY:
            key = (node, _READ, pkt.block)
        elif mt is MessageType.WRITE_ACK:
            key = (node, _WRITE, pkt.block)
        else:
            return
        entry = self._entries.pop(key, None)
        if entry is not None and entry[_E_ATTEMPTS] > 0:
            self.recovered += 1
            self.recovery_samples.append(cycle - entry[_E_FIRST])

    def outstanding(self) -> int:
        """Tracked requests not yet answered (conservation checks)."""
        return len(self._entries)

    def _service_timeouts(self, cycle: int) -> None:
        heap = self._heap
        entries = self._entries
        while heap and heap[0][0] <= cycle:
            deadline, _, key = heappop(heap)
            entry = entries.get(key)
            if entry is None or entry[_E_DEADLINE] != deadline:
                continue  # cleared, or superseded by a newer deadline
            self._retransmit(key, entry, cycle)

    def _retransmit(self, key, entry, cycle: int) -> None:
        node, group, block = key
        attempts = entry[_E_ATTEMPTS]
        if attempts >= self.plan.max_retries:
            del self._entries[key]
            self.lost += 1
            return
        is_dnf = False
        if group == _READ:
            if node in self.gpu_nodes:
                # fall back to a Do-Not-Forward request: the LLC answers
                # directly, never through the (possibly faulty) delegation
                # chain, so every request is still answered
                pkt = Packet(
                    node, self.addr_map.home_of(block), MessageType.DNF_REQ,
                    TrafficClass.GPU, 1, block=block, requester=node,
                    dnf=True,
                )
                is_dnf = True
            else:
                # CPU blocks home at half granularity (64B in a 128B space)
                pkt = Packet(
                    node, self.addr_map.home_of(block >> 1),
                    MessageType.READ_REQ, TrafficClass.CPU, 1, block=block,
                )
        else:
            pkt = Packet(
                node, entry[_E_DST], MessageType.WRITE_REQ,
                entry[_E_CLS], entry[_E_SIZE], block=block,
            )
        if self.fabric.nic(node).try_send(pkt, cycle):
            entry[_E_ATTEMPTS] = attempts + 1
            self.retransmits += 1
            if is_dnf:
                self.fallback_dnfs += 1
            delay = min(
                int(self.plan.request_timeout
                    * self.plan.backoff ** (attempts + 1)),
                self.plan.timeout_cap,
            )
        else:
            delay = 8  # injection queue full: retry soon, attempt not spent
        entry[_E_DEADLINE] = cycle + delay
        heappush(self._heap, (entry[_E_DEADLINE], next(self._seq), key))

    # -- deadlock/livelock watchdog --------------------------------------

    def _watchdog(self, cycle: int) -> None:
        fired = False
        checks = self.plan.watchdog_checks
        for net in self._nets:
            strikes = self._strikes[net.name]
            for router in net.routers:
                rid = router.rid
                if router.buffered_flits() == 0:
                    strikes.pop(rid, None)
                    continue
                routed = router.flits_routed
                state = strikes.get(rid)
                if state is None or state[0] != routed:
                    strikes[rid] = [routed, 1]
                    continue
                state[1] += 1
                if state[1] >= checks:
                    self.watchdog_fires += 1
                    fired = True
                    state[1] = -checks  # cooldown before re-firing
                    tel = self.telemetry
                    if tel is not None:
                        tel.on_fault_event({
                            "rec": "fault",
                            "fault": "fault_stall",
                            "net": net.name,
                            "router": rid,
                            "cycle": cycle,
                            "buffered": router.buffered_flits(),
                        })
                    net.mark_router_active(rid)
        if fired and self._entries:
            # livelock recovery: expire everything outstanding now so reads
            # fall back to direct LLC (DNF) replies immediately instead of
            # waiting out the backoff ladder
            for key, entry in self._entries.items():
                if entry[_E_DEADLINE] > cycle:
                    entry[_E_DEADLINE] = cycle
                    heappush(self._heap, (cycle, next(self._seq), key))
            self._service_timeouts(cycle)

    # -- reporting -------------------------------------------------------

    def recovery_percentile(self, pct: float) -> float:
        samples = sorted(self.recovery_samples)
        if not samples:
            return 0.0
        idx = min(len(samples) - 1, int(len(samples) * pct / 100.0))
        return float(samples[idx])

    def summary(self) -> Dict[str, float]:
        return {
            "drops": self.drops,
            "discarded": self.discarded,
            "retransmits": self.retransmits,
            "fallback_dnfs": self.fallback_dnfs,
            "recovered": self.recovered,
            "lost": self.lost,
            "outstanding": self.outstanding(),
            "watchdog_fires": self.watchdog_fires,
            "links_downed": self.links_downed,
            "recovery_p50": self.recovery_percentile(50),
            "recovery_max": (
                float(max(self.recovery_samples))
                if self.recovery_samples else 0.0
            ),
        }


def quiesce(system, max_cycles: int = 40_000) -> int:
    """Stop the traffic sources and drain the system.

    Freezes every core's trace generator, then steps until all tracked
    requests are answered and no flit remains buffered in any router —
    the packet-conservation check chaos runs assert on.  Returns the
    number of unanswered requests plus stranded flits (0 = conserved).
    """
    for core in system.gpu_cores:
        core.stall(10 ** 9)
    for core in system.cpu_cores:
        core._countdown = 10 ** 9
        core._pending = None
    fc: Optional[FaultController] = system.faults
    for _ in range(max_cycles):
        pending = (fc.outstanding() if fc is not None else 0)
        if pending == 0 and system.fabric.in_flight_flits() == 0:
            break
        system.step()
    return (
        (fc.outstanding() if fc is not None else 0)
        + system.fabric.in_flight_flits()
    )
