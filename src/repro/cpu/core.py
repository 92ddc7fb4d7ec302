"""CPU core model: Netrace-style dependency-driven traffic.

The paper injects CPU traffic from dependency-annotated traces (Netrace
[26]) so that CPU performance responds to network latency.  Our model
executes a synthetic instruction stream with a memory operation every
``mem_interval`` instructions; L1-missing loads either *block* the core
until the reply returns (with the benchmark's ``dep_fraction``
probability) or overlap with execution up to ``max_outstanding`` misses.
CPU IPC and average network latency therefore react to memory-node
blocking exactly the way the paper's Figures 12-13 measure.

CPU cores sit in their own MESI coherence domain; the workloads are
multi-programmed (no inter-CPU sharing), so directory traffic reduces to
the LLC round trip already modelled.  Delegated Replies never crosses the
CPU-GPU coherence boundary (Section IV): CPU replies are never delegated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cache.cache import MshrFile, SetAssociativeCache
from repro.config.system import SystemConfig
from repro.mem.address import AddressMap
from repro.noc.nic import NodeInterface
from repro.noc.packet import CPU_CLS, READ_REPLY, READ_REQ, REQUEST_NET, Packet
from repro.telemetry.hist import LogHistogram
from repro.workloads.cpu import CpuTraceGenerator


@dataclass
class CpuCoreStats:
    insts: int = 0
    mem_ops: int = 0
    l1_hits: int = 0
    l1_misses: int = 0
    stall_cycles: int = 0
    replies: int = 0
    total_latency: int = 0
    #: reply-latency distribution; the mean hides the tail the paper's
    #: Fig. 12 argument rests on, so the full (log-bucketed) histogram is
    #: kept alongside ``total_latency`` and flattened into the counter
    #: snapshot for window diffing.
    lat_hist: LogHistogram = field(default_factory=LogHistogram)


class CpuCore:
    """One latency-sensitive CPU core."""

    def __init__(
        self,
        node_id: int,
        core_index: int,
        cfg: SystemConfig,
        trace: CpuTraceGenerator,
        nic: NodeInterface,
        addr_map: AddressMap,
    ) -> None:
        self.node_id = node_id
        self.core_index = core_index
        self.cfg = cfg
        self.trace = trace
        self.nic = nic
        self.addr_map = addr_map
        self.l1 = SetAssociativeCache(cfg.cpu_l1.num_sets, cfg.cpu_l1.assoc)
        self.mshrs = MshrFile(cfg.cpu_l1.mshrs)
        self.stats = CpuCoreStats()
        #: block the core is stalled on (dependent load), if any
        self._blocked_on: Optional[int] = None
        #: instructions left before the next memory operation
        self._countdown = trace.profile.mem_interval
        #: pending access that could not be sent yet
        self._pending: Optional[int] = None
        #: cycles the core is busy with a previous L1 hit
        self._busy_until = 0
        #: issue cycle per outstanding block (round-trip latency tracking)
        self._issue_cycle: dict = {}
        nic.handler = self.on_packet

    # -- NoC side --------------------------------------------------------

    def on_packet(self, pkt: Packet, cycle: int) -> None:
        if pkt.mtype is not READ_REPLY:
            raise RuntimeError(f"CPU core got unexpected {pkt!r}")
        self.stats.replies += 1
        block = pkt.block
        issued = self._issue_cycle.pop(block, None)
        # round-trip network latency: request issue to reply delivery.
        # This is what Netrace feeds back into CPU timing (Fig. 12).
        latency = cycle - issued if issued is not None else pkt.latency
        self.stats.total_latency += latency
        self.stats.lat_hist.record(latency)
        self.l1.insert(block)
        if self.mshrs.has(block):
            self.mshrs.release(block)
        if self._blocked_on == block:
            self._blocked_on = None

    # -- per-cycle behaviour ----------------------------------------------

    def step(self, cycle: int) -> None:
        if self._blocked_on is not None or cycle < self._busy_until:
            self.stats.stall_cycles += 1
            return
        if self._pending is not None:
            if not self._try_send(self._pending, cycle):
                self.stats.stall_cycles += 1
                return
            self._pending = None
            self._countdown = self.trace.profile.mem_interval
            return
        if self._countdown > 0:
            self._countdown -= 1
            self.stats.insts += 1
            return
        # memory operation
        block, _is_write = self.trace.next_access()
        self.stats.mem_ops += 1
        self.stats.insts += 1
        if self.l1.lookup(block):
            self.stats.l1_hits += 1
            self._busy_until = cycle + self.cfg.cpu_l1.hit_latency
            self._countdown = self.trace.profile.mem_interval
            return
        self.stats.l1_misses += 1
        if self.mshrs.has(block):
            # already in flight: dependent semantics apply
            if self.trace.is_dependent():
                self._blocked_on = block
            self._countdown = self.trace.profile.mem_interval
            return
        if not self._try_send(block, cycle):
            self._pending = block
            self.stats.stall_cycles += 1
            return
        self._countdown = self.trace.profile.mem_interval

    def _try_send(self, block: int, cycle: int) -> bool:
        if self.mshrs.full or len(self.mshrs) >= self.cfg.cpu_core.max_outstanding:
            return False
        if not self.nic.can_enqueue(REQUEST_NET):
            return False
        pkt = Packet(
            src=self.node_id,
            dst=self.addr_map.home_of(block >> 1),  # 128 B home of a 64 B block
            mtype=READ_REQ,
            cls=CPU_CLS,
            size_flits=1,
            block=block,
            created=cycle,
        )
        self.nic.try_send(pkt, cycle)
        self.mshrs.allocate(block, "cpu")
        self._issue_cycle[block] = cycle
        if self.trace.is_dependent():
            self._blocked_on = block
        return True
