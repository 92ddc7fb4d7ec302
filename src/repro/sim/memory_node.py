"""Memory-node endpoint: LLC slice + memory controller behind one NIC.

The memory node ejects requests from the request network (gated on LLC
input-queue space — a blocked memory node refuses requests, which is the
back-pressure loop of Figure 3), looks them up in its LLC slice, fetches
misses from its GDDR5 controller, and posts replies into the NIC's
flit-bounded reply injection buffer.

It is also where Delegated Replies — the paper's mechanism (Sections II
and IV) — is decided.  The memory node speculatively delegates the
responsibility of replying to an LLC *hit* to the GPU core that last
accessed the block (the LLC's core pointer), entirely at the end points:

* a reply is *delegatable* — its ``delegate_to`` names the pointed-to
  core — when the request was a GPU read that hit in the LLC, the block's
  core pointer is valid, points to a different GPU core than the
  requester, and the request did not carry the Do-Not-Forward bit
  (:meth:`MemoryNode._delegate_to`);
* the memory-node NIC, configured here from ``cfg.delegation`` (None on
  every other mechanism), converts the oldest delegatable reply into a
  1-flit delegated request *only when the reply network cannot accept
  traffic that cycle* (Figure 4) — turning a 9-flit reply on the clogged
  reply link into a 1-flit request on the under-utilised request link
  (:class:`~repro.noc.nic.MemoryNodeNic`).

Routers treat delegated replies as ordinary requests; no NoC changes are
needed beyond the DNF bit, which fits in existing spare request-header
space.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional, Set

from repro.cache.llc import LlcRequest, LlcResult, LlcSlice
from repro.config.system import SystemConfig
from repro.mem.dram import MemoryController
from repro.noc.nic import MemoryNodeNic
from repro.noc.packet import (
    CPU_CLS, DNF_REQ, GPU_CLS, READ_REPLY, READ_REQ, REPLY_NET, WRITE_ACK,
    WRITE_REQ, Packet,
)


@dataclass
class MemoryNodeStats:
    requests: int = 0
    gpu_reads: int = 0
    cpu_reads: int = 0
    writes: int = 0
    dnf_requests: int = 0
    replies_sent: int = 0
    delegatable_replies: int = 0
    reply_backpressure_cycles: int = 0


class MemoryNode:
    """One memory node (LLC slice + memory controller)."""

    def __init__(self, node_id: int, cfg: SystemConfig, nic: MemoryNodeNic,
                 gpu_nodes: Set[int]) -> None:
        self.node_id = node_id
        self.cfg = cfg
        self.nic = nic
        self.gpu_nodes = frozenset(gpu_nodes)
        self.controller = MemoryController(cfg.dram, line_bytes=cfg.llc.line_bytes)
        self.llc = LlcSlice(node_id, cfg.llc, self.controller)
        self.stats = MemoryNodeStats()
        #: requests admitted by the ejection gate while the input queue was
        #: momentarily overbooked by interleaved worms
        self._overflow: Deque[LlcRequest] = deque()
        nic.handler = self.on_packet
        nic.eject_gate = self._eject_gate
        # the reply buffer admits a reply while the largest one this node
        # can send still fits (a read reply carrying the longer L1 line)
        nic.worst_reply_flits = cfg.noc.flits_for(
            max(cfg.gpu_l1.line_bytes, cfg.cpu_l1.line_bytes))
        nic.set_delegation(cfg.delegation if cfg.delegation_active else None)
        #: ejection-gate state after the previous step; the fabric's
        #: active-set scheduler is woken on every closed -> open transition
        self._gate_was_open = True

    # -- NoC-facing side --------------------------------------------------

    def _eject_gate(self, pkt: Packet) -> bool:
        return self.llc.can_accept() and not self._overflow

    def on_packet(self, pkt: Packet, cycle: int) -> None:
        mtype = pkt.mtype
        if mtype not in (READ_REQ, WRITE_REQ, DNF_REQ):  # pragma: no cover - protocol violation
            raise RuntimeError(f"memory node got unexpected {pkt!r}")
        self.stats.requests += 1
        is_write = mtype is WRITE_REQ
        is_cpu = pkt.cls is CPU_CLS
        if is_write:
            self.stats.writes += 1
        elif is_cpu:
            self.stats.cpu_reads += 1
        else:
            self.stats.gpu_reads += 1
        if mtype is DNF_REQ:
            self.stats.dnf_requests += 1
        req = LlcRequest(
            requester=pkt.requester, block=pkt.block >> 1 if is_cpu else pkt.block,
            is_write=is_write, cls=pkt.cls, dnf=pkt.dnf or mtype is DNF_REQ,
            gpu_core=pkt.requester in self.gpu_nodes, arrival=cycle,
        )
        req.orig_block = pkt.block  # reply must echo the requester's view
        if not self.llc.enqueue(req):
            self._overflow.append(req)
        # ejections can close the gate mid-fabric-step; record it so the
        # next reopening is seen as a transition and wakes the routers
        if self._gate_was_open:
            self._gate_was_open = not self._overflow and self.llc.can_accept()

    # -- per-cycle behaviour ----------------------------------------------

    def step(self, cycle: int) -> None:
        while self._overflow and self.llc.can_accept():
            self.llc.enqueue(self._overflow.popleft())
        self.controller.step(cycle)
        self.controller.drain_completions(cycle)
        self.llc.step(cycle)
        self._drain_results(cycle)
        # a request worm parked behind a full LLC queue sleeps in the local
        # router; tell the fabric when the gate reopens
        gate_open = not self._overflow and self.llc.can_accept()
        if gate_open and not self._gate_was_open:
            self.nic.notify_eject_ready()
        self._gate_was_open = gate_open

    def _drain_results(self, cycle: int) -> None:
        while True:
            result = self.llc.peek_result()
            if result is None:
                return
            if not self.nic.can_enqueue(REPLY_NET):
                self.stats.reply_backpressure_cycles += 1
                return
            self.llc.pop_result()
            self.nic.try_send(self._reply_for(result, cycle), cycle)
            self.stats.replies_sent += 1

    def _reply_for(self, result: LlcResult, cycle: int) -> Packet:
        req = result.req
        if req.is_write:
            return Packet(src=self.node_id, dst=req.requester, mtype=WRITE_ACK, cls=req.cls,
                          size_flits=1, block=req.orig_block, created=cycle)
        line = (self.cfg.gpu_l1.line_bytes if req.cls is GPU_CLS
                else self.cfg.cpu_l1.line_bytes)
        delegate_to = self._delegate_to(result)
        if delegate_to is not None:
            self.stats.delegatable_replies += 1
        return Packet(
            src=self.node_id, dst=req.requester, mtype=READ_REPLY,
            cls=req.cls, size_flits=self.cfg.noc.flits_for(line), block=req.orig_block,
            delegate_to=delegate_to,
            created=cycle,
        )

    def _delegate_to(self, result: LlcResult) -> Optional[int]:
        """The GPU core a read reply may be delegated to, or None."""
        req = result.req
        if (
            self.nic.delegation is not None
            and result.hit
            and req.gpu_core
            and not req.dnf
            and result.pointer is not None
            and result.pointer != req.requester
            and result.pointer in self.gpu_nodes
        ):
            return result.pointer
        return None

    def flush_pointers(self) -> int:
        """Invalidate all core pointers (GPU coherence flush)."""
        return self.llc.drop_all_pointers()
