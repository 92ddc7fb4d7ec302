"""GPU SM core model.

Each GPU node hosts a streaming multiprocessor abstracted as a pool of
warps that alternate compute phases with memory operations generated by
the benchmark's synthetic trace.  The model keeps the properties the
paper's results rest on:

* *bandwidth-hungry*: many warps keep many misses outstanding (bounded by
  the MSHR file), so aggregate throughput tracks delivered NoC bandwidth;
* *latency-tolerant*: a stalled warp only idles its own slot, other warps
  keep issuing;
* *software coherence*: the L1 is write-through; kernel-boundary flushes
  invalidate the L1 (and the LLC core pointers, handled by the memory
  node).

Delegated Replies support (Section IV, Fig. 8) adds the Forwarded Request
Queue and the remote-over-local priority that avoids the paper's
cross-core resource deadlock; the three delegated-reply outcomes (remote
hit / delayed hit / remote miss) are implemented exactly as described.
Realistic Probing support turns L1 misses into parallel probes of other
L1s with LLC fallback.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional, Tuple

from repro.cache.cache import MshrFile
from repro.config.system import SystemConfig
from repro.core.realistic_probing import ProbeEngine
from repro.gpu.frq import ForwardedRequestQueue
from repro.gpu.shared_l1 import PrivateL1
from repro.mem.address import AddressMap
from repro.noc.nic import NodeInterface
from repro.noc.packet import MessageType, NetKind, Packet, TrafficClass
from repro.telemetry.hist import LogHistogram
from repro.workloads.gpu import GpuTraceGenerator

#: cap on write-through requests in flight per core
_WRITE_CAP = 16
#: ``wake_at`` of a sleeping core with no timed wake
_NEVER = 1 << 62
#: sorts after every (ready_cycle, warp) scheduling key
_LAST = (_NEVER, 0)


@dataclass
class GpuCoreStats:
    insts: int = 0
    mem_ops: int = 0
    reads: int = 0
    writes: int = 0
    l1_hit_ops: int = 0
    l1_miss_ops: int = 0
    secondary_misses: int = 0
    llc_replies: int = 0       # replies served by the memory node
    c2c_replies: int = 0       # replies served by a remote L1
    frq_remote_hits: int = 0
    frq_delayed_hits: int = 0
    frq_remote_misses: int = 0
    frq_timeout_dnfs: int = 0
    frq_merged: int = 0
    probes_received: int = 0
    probe_hits_served: int = 0
    issue_stalls: int = 0
    flushes: int = 0
    #: reply-latency distribution (creation to delivery), log-bucketed so
    #: the counter snapshot can carry percentiles without raw samples.
    lat_hist: LogHistogram = field(default_factory=LogHistogram)


class GpuCore:
    """One GPU SM plus its L1, MSHRs and (optionally) FRQ/probe engine."""

    def __init__(self, node_id: int, core_index: int, cfg: SystemConfig, l1,
                 trace: GpuTraceGenerator, nic: NodeInterface, addr_map: AddressMap,
                 probe_engine: Optional[ProbeEngine] = None) -> None:
        self.node_id = node_id
        self.core_index = core_index
        self.cfg = cfg
        self.l1 = l1
        self.trace = trace
        self.nic = nic
        self.addr_map = addr_map
        self.probe = probe_engine
        self.mshrs = MshrFile(cfg.gpu_l1.mshrs)
        self.frq = ForwardedRequestQueue(cfg.gpu_l1.frq_entries)
        self.stats = GpuCoreStats()
        self.outstanding_writes = 0
        #: remote waiters parked in the MSHR file (delayed FRQ/probe
        #: hits): the watchdog sweep runs only while there are any
        self._remote_waiters = 0
        # warp scheduling: the issue order is ascending (ready_cycle,
        # warp_id) over two containers.  ``_ready`` is a min-heap of warps
        # that have not failed an issue attempt since they last became
        # ready; ``_stalled`` is a FIFO of warps whose last attempt failed,
        # keyed (failed_cycle + 1, warp_id) — at most one attempt fails per
        # cycle, so append order is key order.  Benchmarks with low
        # occupancy/miss pressure (e.g. NN) cap their active warps.
        n_warps = cfg.gpu_core.warps
        if trace.profile.active_warps:
            n_warps = min(n_warps, trace.profile.active_warps)
        self.n_warps = n_warps
        self._ready: List[Tuple[int, int]] = [(0, w) for w in range(n_warps)]
        heapq.heapify(self._ready)
        self._stalled: Deque[Tuple[int, int]] = deque()
        #: per-warp generated-but-unissued access (kept across retries)
        self._pending_access: List[Optional[Tuple[int, bool]]] = [None] * n_warps
        # outgoing work queues (drained as NIC capacity allows)
        self._c2c_out: Deque[Tuple[int, int]] = deque()   # (dst, block)
        self._dnf_out: Deque[Tuple[int, int]] = deque()   # (requester, block)
        self._nack_out: Deque[Tuple[int, int]] = deque()  # (dst, block)
        self._fallback_out: Deque[int] = deque()          # block -> LLC
        self._probe_in: Deque[Tuple[int, int]] = deque()  # (requester, block)
        #: extra requesters merged onto queued FRQ entries (ablation)
        self._frq_merged: dict = {}
        nic.handler = self.on_packet
        nic.eject_gate = self._eject_gate
        #: the FRQ has been full since the fabric was last told the eject
        #: gate reopened; its routers are woken when the FRQ drains
        self._frq_was_full = False
        self._gap = trace.profile.compute_gap
        self._issue_width = cfg.gpu_core.issue_width
        self._hit_latency = cfg.gpu_l1.hit_latency
        self._frq_merge = cfg.delegation.frq_merge
        self._reply_flits = cfg.noc.flits_for(cfg.gpu_l1.line_bytes)
        #: optional hook called as (core, block) on every primary read miss;
        #: the inter-core locality study (Fig. 2) uses it to check remote
        #: L1s at miss time.
        self.miss_observer = None
        #: local issue is paused until this cycle (coherence flush cost);
        #: written through :meth:`stall`
        self.stall_until = 0
        # endpoint scheduling (DESIGN.md, "Endpoint scheduling contract"):
        # ``step`` is a no-op while ``cycle < wake_at``.  A slice port's
        # ``try_access`` changes per-cycle state other cores read and a
        # probe engine's decisions are not the core's alone, so such a
        # core is never put to sleep.
        self._may_sleep = probe_engine is None and isinstance(l1, PrivateL1)
        self.wake_at = 0
        #: first skipped cycle whose failed issue attempt has not been
        #: counted yet; None when no step has been skipped since ``step``
        self._owed_from: Optional[int] = None
        #: ``step`` calls that did run (see ``scheduler_stats``)
        self.steps = 0

    # ------------------------------------------------------------------
    # NoC-facing side
    # ------------------------------------------------------------------

    def _eject_gate(self, pkt: Packet) -> bool:
        if pkt.mtype is MessageType.DELEGATED_REQ:
            if self._frq_merge and self.frq.contains_block(pkt.block):
                return True  # merges into a queued entry, no slot needed
            return not self.frq.full
        return True

    def on_packet(self, pkt: Packet, cycle: int) -> None:
        mtype = pkt.mtype
        if mtype is not MessageType.DELEGATED_REQ:
            self.wake_at = 0  # a delivery is a wake event (see below)
        if mtype is MessageType.READ_REPLY:
            self.stats.llc_replies += 1
            self.stats.lat_hist.record(cycle - pkt.created)
            self._fill(pkt.block, cycle)
        elif mtype is MessageType.C2C_REPLY:
            self.stats.c2c_replies += 1
            self.stats.lat_hist.record(cycle - pkt.created)
            if self.probe is not None:
                self.probe.on_data(pkt.block)
            self._fill(pkt.block, cycle)
        elif mtype is MessageType.WRITE_ACK:
            self.outstanding_writes -= 1
        elif mtype is MessageType.DELEGATED_REQ:
            if self._frq_merge and self.frq.contains_block(pkt.block):
                # merged with the queued same-block entry: one L1 probe
                # will serve both requesters (ablation, Section IV)
                self._frq_merged.setdefault(pkt.block, []).append(pkt.requester)
                self.stats.frq_merged += 1
                return
            # a new FRQ head wakes a sleeping core for its service cycle;
            # one queued behind a head is served after the head's wake
            due = cycle + self._hit_latency
            if not len(self.frq) and self.wake_at > due:
                self.wake_at = due
            accepted = self.frq.push(pkt.requester, pkt.block, cycle)
            assert accepted, "eject gate must keep the FRQ from overflowing"
            # a closed gate parks worms in sleeping routers; record it so
            # the next drain is seen as a transition and wakes them
            if self.frq.full:
                self._frq_was_full = True
        elif mtype is MessageType.PROBE_REQ:
            self.stats.probes_received += 1
            self._probe_in.append((pkt.requester, pkt.block))
        elif mtype is MessageType.PROBE_NACK:
            if self.probe is not None and self.probe.on_nack(pkt.block):
                self._fallback_out.append(pkt.block)
        else:  # pragma: no cover - protocol violation
            raise RuntimeError(f"GPU core got unexpected {pkt!r}")

    def _fill(self, block: int, cycle: int) -> None:
        """A data reply arrived: fill the L1 and wake/serve all waiters."""
        self.l1.fill(block)
        if not self.mshrs.has(block):
            return  # e.g. duplicate service after a flush; data still usable
        for waiter in self.mshrs.release(block):
            if waiter[0] == "local":
                self.stats.insts += self._gap + 1
                heapq.heappush(self._ready, (cycle + 1 + self._gap, waiter[1]))
            else:  # remote waiter registered by a delayed FRQ/probe hit
                self._remote_waiters -= 1
                self._c2c_out.append((waiter[1], block))

    # ------------------------------------------------------------------
    # per-cycle behaviour
    # ------------------------------------------------------------------

    #: how often the delegation watchdog sweeps parked remote waiters
    _SWEEP_PERIOD = 256

    def step(self, cycle: int) -> None:
        if cycle < self.wake_at:
            return
        if self._owed_from is not None:
            self.settle(cycle)
            self._owed_from = None
            self.wake_at = 0
        self.steps += 1
        if self._c2c_out or self._nack_out or self._dnf_out or self._fallback_out:
            self._drain_outgoing(cycle)
        if self._probe_in or len(self.frq):
            self._serve_remote(cycle)
        self._issue_local(cycle)
        if cycle % self._SWEEP_PERIOD == 0 and self._remote_waiters:
            self._sweep_delayed(cycle)
        # a delegated-request worm parked behind a full FRQ sleeps in the
        # local router; tell the fabric when the gate reopens.  While the
        # FRQ is full no merge target can appear (merges piggyback on
        # pushes), so the full -> not-full edge covers every reopening;
        # ``on_packet`` records the FRQ filling up.
        if self._frq_was_full and not self.frq.full:
            self._frq_was_full = False
            self.nic.notify_eject_ready()
        if self._may_sleep:
            self._maybe_sleep(cycle)

    # -- endpoint scheduling ------------------------------------------------

    def _maybe_sleep(self, cycle: int) -> None:
        """Sleep until the next ``step`` that could do anything but what
        :meth:`settle` can replay.

        That is: nothing is queued to send, and every issue attempt
        before ``wake_at`` is the retry of a warp that has failed and
        would fail again for a reason only a delivered packet, this
        core's own issue or a pop of the NIC request queue can lift
        (MSHR file full or NIC request queue full, for a line neither
        cached nor outstanding; write cap reached or NIC request queue
        full).  The NIC wakes a core asleep on its full queue when it
        pops it.  ``trace.next_access()`` is never drawn early, so the
        sleep ends when the first warp without a failed attempt gets
        its turn.
        """
        next_cycle = cycle + 1
        first_issue = self.stall_until
        if first_issue < next_cycle:
            first_issue = next_cycle
        stalled = self._stalled
        nic_full = False
        if stalled:
            nic_full = not self.nic.can_enqueue(NetKind.REQUEST)
            reads_fail = nic_full or self.mshrs.full
            writes_fail = nic_full or self.outstanding_writes >= _WRITE_CAP
            if not (reads_fail or writes_fail) and first_issue == next_cycle:
                # whoever goes next cycle is not known to fail
                return
        if (
            self._c2c_out or self._dnf_out or self._nack_out
            or self._fallback_out or self._probe_in
        ):
            return
        # ``wake``: the untried warp's turn if every stalled warp ahead of
        # it keeps failing, one retry per cycle from ``first_issue`` on
        untried = _LAST
        wake = _NEVER
        if self._ready:
            head = self._ready[0]
            due = head[0]
            if due <= first_issue:
                # it goes once the stalled warps queued ahead of it have
                # had their retry (a retried warp re-queues behind it)
                untried = head
                wake = first_issue + len(stalled)
            elif stalled:
                # retries rotate up to ``due - 1``; the warp retried then
                # ties the untried one on ready cycle, every other stalled
                # warp is still ahead of it
                k = len(stalled)
                last = stalled[(due - 1 - first_issue) % k][1]
                wake = due + k - 1 + (last < head[1])
            else:
                wake = due
        if stalled:
            # FIFO entry i is retried i cycles in; the sleep ends at the
            # first one that is behind the untried warp or would not fail
            mshrs, l1, pending = self.mshrs, self.l1, self._pending_access
            turn = first_issue
            for entry in stalled:
                block, is_write = pending[entry[1]]
                if entry > untried or not (
                    writes_fail if is_write
                    else reads_fail
                    and not mshrs.has(block) and not l1.contains(block)
                ):
                    wake = turn
                    break
                turn += 1
        if wake <= next_cycle:
            return
        delegated = self.frq.peek()
        if delegated is not None:  # served ``hit_latency`` after arrival
            wake = min(wake, delegated[2] + self._hit_latency)
        if self._remote_waiters:  # the watchdog sweep runs on its own clock
            period = self._SWEEP_PERIOD
            wake = min(wake, (cycle // period + 1) * period)
        if wake > next_cycle:
            self.wake_at = wake
            self._owed_from = first_issue
            if nic_full:
                self.nic.sleeper = self

    def wake(self) -> None:
        """Have ``step`` run again from the next call on.  ``on_packet``,
        :meth:`stall` and a pop of a full NIC request queue wake the core;
        the skipped retries are settled by the ``step`` that follows."""
        self.wake_at = 0

    def settle(self, cycle: int) -> None:
        """Replay the failed issue attempts of the skipped steps before
        ``cycle``: one per cycle, the stalled warps taking turns in FIFO
        order — a stall count, a raw L1 miss for each read among them,
        and the warp re-queued behind the others at ``attempt + 1``."""
        first = self._owed_from
        if first is None or cycle <= first:
            return
        self._owed_from = cycle
        stalled = self._stalled
        if not stalled:
            return
        n, k = cycle - first, len(stalled)
        self.stats.issue_stalls += n
        pending = self._pending_access
        laps, rest = divmod(n, k)
        writes = [pending[warp][1] for _key, warp in stalled]
        self.l1.count_misses(n - laps * sum(writes) - sum(writes[:rest]))
        if laps:
            # whole laps keep the order and their keys are overwritten by
            # the last lap: only the final k attempts need re-keying
            stalled.rotate(-rest)
            first = cycle - k
        for attempt in range(first, cycle):
            stalled.append((attempt + 1, stalled.popleft()[1]))

    def stall(self, until: int) -> None:
        """Pause local issue until cycle ``until`` (never shortens a
        pause).  Wakes the core: retries owed so far were frozen against
        the old ``stall_until`` when it fell asleep."""
        self.wake_at = 0
        self.stall_until = max(self.stall_until, until)

    def _sweep_delayed(self, cycle: int) -> None:
        """Delegation watchdog (Section IV hardening).

        A delayed remote hit normally completes when this core's own fill
        arrives.  If that fill is itself delegated, two requests for the
        same block can (rarely, after an eviction/re-request race) end up
        waiting on each other.  Remote waiters older than the timeout are
        therefore bounced back to the LLC with the DNF bit — the LLC then
        serves the original requester directly, preserving exactly-once
        delivery.
        """
        timeout = self.cfg.delegation.delayed_hit_timeout
        for block in list(self.mshrs.outstanding_blocks()):
            expired = self.mshrs.remove_waiters(
                block,
                lambda w: w[0] == "remote" and cycle - w[2] > timeout,
            )
            self._remote_waiters -= len(expired)
            for _kind, requester, _reg in expired:
                self.stats.frq_timeout_dnfs += 1
                self._dnf_out.append((requester, block))

    def _drain_outgoing(self, cycle: int) -> None:
        """Send queued core-originated packets as the NIC allows."""
        nic = self.nic
        if self._c2c_out and nic.can_enqueue(NetKind.REPLY):
            dst, block = self._c2c_out.popleft()
            nic.try_send(self._mk(MessageType.C2C_REPLY, dst, block,
                                  self._reply_flits, cycle), cycle)
        if self._nack_out and nic.can_enqueue(NetKind.REPLY):
            dst, block = self._nack_out.popleft()
            nic.try_send(self._mk(MessageType.PROBE_NACK, dst, block, 1, cycle), cycle)
        if self._dnf_out and nic.can_enqueue(NetKind.REQUEST):
            requester, block = self._dnf_out.popleft()
            pkt = self._mk(MessageType.DNF_REQ, self.addr_map.home_of(block),
                           block, 1, cycle)
            pkt.requester = requester
            pkt.dnf = True
            nic.try_send(pkt, cycle)
        if self._fallback_out and nic.can_enqueue(NetKind.REQUEST):
            block = self._fallback_out.popleft()
            nic.try_send(self._mk(MessageType.READ_REQ,
                                  self.addr_map.home_of(block), block, 1, cycle),
                         cycle)

    def _serve_remote(self, cycle: int) -> None:
        """Serve one FRQ entry and one probe per cycle.

        Remote requests have priority over local ones — the paper's
        deadlock-avoidance policy (Section IV) — which holds here because
        remote service happens before local issue and never allocates an
        MSHR entry.
        """
        entry = self.frq.peek()
        if entry is not None:
            requester, block, arrival = entry
            if cycle >= arrival + self._hit_latency:
                self.frq.pop()
                requesters = [requester] + self._frq_merged.pop(block, [])
                for req in requesters:
                    if self.l1.contains(block):
                        self.stats.frq_remote_hits += 1
                        self._c2c_out.append((req, block))
                    elif self.mshrs.has(block):
                        self.stats.frq_delayed_hits += 1
                        self._remote_waiters += 1
                        self.mshrs.add_waiter(block, ("remote", req, cycle))
                    else:
                        self.stats.frq_remote_misses += 1
                        self._dnf_out.append((req, block))
        if self._probe_in:
            requester, block = self._probe_in.popleft()
            if self.l1.contains(block):
                self.stats.probe_hits_served += 1
                self._c2c_out.append((requester, block))
            elif self.mshrs.has(block) and not (
                self.probe is not None and self.probe.is_probing(block)
            ):
                # the probe found the line outstanding in this cache: serve
                # it when the fill arrives (like a delegated delayed hit).
                # Guarded against mutual-probe cycles: if this core is
                # itself still probing for the block, its own fill is not
                # guaranteed, so NACK instead of waiting.
                self.stats.probe_hits_served += 1
                self._remote_waiters += 1
                self.mshrs.add_waiter(block, ("remote", requester, cycle))
            else:
                self._nack_out.append((requester, block))

    def _issue_local(self, cycle: int) -> None:
        if cycle < self.stall_until:
            return
        ready, stalled = self._ready, self._stalled
        for _ in range(self._issue_width):
            # stalled keys are <= cycle, so the FIFO head is always due
            if stalled and (not ready or stalled[0] < ready[0]):
                warp = stalled.popleft()[1]
            elif ready and ready[0][0] <= cycle:
                warp = heapq.heappop(ready)[1]
            else:
                return
            if not self._issue_warp(warp, cycle):
                self.stats.issue_stalls += 1
                stalled.append((cycle + 1, warp))
                return  # in-order issue per SM slot: stop on a stall

    def _issue_warp(self, warp: int, cycle: int) -> bool:
        """Try to issue the warp's next memory op; False to retry later."""
        access = self._pending_access[warp]
        if access is None:
            access = self.trace.next_access()
            self._pending_access[warp] = access
        block, is_write = access
        if is_write:
            return self._issue_write(warp, block, cycle)
        return self._issue_read(warp, block, cycle)

    def _issue_write(self, warp: int, block: int, cycle: int) -> bool:
        if self.outstanding_writes >= _WRITE_CAP:
            return False
        if not self.nic.can_enqueue(NetKind.REQUEST):
            return False
        pkt = self._mk(MessageType.WRITE_REQ, self.addr_map.home_of(block),
                       block, self._reply_flits, cycle)
        self.nic.try_send(pkt, cycle)
        self.outstanding_writes += 1
        # write-through: the local copy (if any) is updated in place
        self._retire(warp, cycle + 1)
        return True

    def _issue_read(self, warp: int, block: int, cycle: int) -> bool:
        state, lat = self.l1.access(block, cycle)
        if state == "busy":  # shared-L1 slice port conflict
            return False
        if state == "hit":
            self.stats.l1_hit_ops += 1
            self._retire(warp, cycle + lat)
            return True
        # miss path
        if self.mshrs.has(block):
            self.stats.secondary_misses += 1
            self._complete_issue(warp, is_read_miss=True)
            self.mshrs.add_waiter(block, ("local", warp))
            return True
        if self.mshrs.full:
            return False
        if self.probe is not None and self.probe.should_probe(block):
            targets = self.probe.targets_for(block)
            if self.nic.queued(NetKind.REQUEST) + len(targets) > self.nic.queue_packets:
                return False
            self._allocate(block, warp)
            self.probe.begin(block, len(targets))
            for t in targets:
                self.nic.try_send(self._mk(MessageType.PROBE_REQ, t, block, 1, cycle), cycle)
            self._complete_issue(warp, is_read_miss=True)
            return True
        if not self.nic.can_enqueue(NetKind.REQUEST):
            return False
        self._allocate(block, warp)
        self.nic.try_send(
            self._mk(MessageType.READ_REQ, self.addr_map.home_of(block), block, 1, cycle),
            cycle,
        )
        self._complete_issue(warp, is_read_miss=True)
        return True

    def _allocate(self, block: int, warp: int) -> None:
        """A primary read miss takes its MSHR entry (and is observed)."""
        if self.miss_observer is not None:
            self.miss_observer(self, block)
        self.mshrs.allocate(block, ("local", warp))

    def _retire(self, warp: int, ready_at: int) -> None:
        """A memory op completed at issue time (hit or posted write)."""
        self.stats.insts += self._gap + 1
        self.stats.mem_ops += 1
        access = self._pending_access[warp]
        if access and access[1]:
            self.stats.writes += 1
        else:
            self.stats.reads += 1
        self._pending_access[warp] = None
        heapq.heappush(self._ready, (ready_at + self._gap, warp))

    def _complete_issue(self, warp: int, is_read_miss: bool) -> None:
        """A read miss left the core; the warp now waits on the reply."""
        self.stats.mem_ops += 1
        self.stats.reads += 1
        if is_read_miss:
            self.stats.l1_miss_ops += 1
        self._pending_access[warp] = None

    def flush_l1(self) -> int:
        """Software-coherence flush (kernel boundary)."""
        self.stats.flushes += 1
        return self.l1.flush()

    # ------------------------------------------------------------------

    def _mk(self, mtype: MessageType, dst: int, block: int, flits: int, cycle: int) -> Packet:
        return Packet(src=self.node_id, dst=dst, mtype=mtype, cls=TrafficClass.GPU,
                      size_flits=flits, block=block, created=cycle)
