"""Shared last-level cache slice with Delegated Replies core pointers.

One LLC slice sits at each memory node, in front of that node's memory
controller.  Beyond ordinary set-associative behaviour the slice keeps, per
resident line, a *core pointer* to the GPU core that most recently accessed
the line — the paper's "simple yet accurate heuristic" for locating a
likely sharer (Section II).  Pointers are:

* set/updated on every GPU read (to the requester),
* invalidated on writes (write-through coherence, Section IV),
* invalidated when the line is evicted, and
* dropped wholesale when a GPU L1 flush invalidates the coherence epoch.

The slice is a timing model: requests enter a bounded input queue (the
ejection gate of the memory-node NIC), are looked up at one request per
cycle, and complete onto a bounded output queue after ``hit_latency``
cycles or after the memory controller returns the line.  A full output
queue stalls the lookup pipeline, which is how reply-network clogging
back-pressures into the request network (Figure 3).
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional

from repro.cache.cache import MshrFile, SetAssociativeCache
from repro.config.system import LlcConfig
from repro.mem.dram import MemoryController
from repro.noc.packet import TrafficClass


@dataclass
class LlcRequest:
    """A request as seen by the LLC slice."""

    requester: int          # node id of the originating core
    block: int              # 128 B block id
    is_write: bool
    cls: TrafficClass
    dnf: bool = False       # Do-Not-Forward (re-sent after a remote miss)
    gpu_core: bool = False  # requester is a GPU core (pointer eligible)
    arrival: int = 0
    #: block id as the requester addressed it (64 B units for CPU cores);
    #: replies echo this so the requester can match them.
    orig_block: int = -1


@dataclass
class LlcResult:
    """Completion handed back to the memory-node endpoint."""

    req: LlcRequest
    hit: bool               # LLC hit (only hits are delegatable)
    pointer: Optional[int]  # core pointer *before* this access, if any
    ready: int = 0

    def __lt__(self, other: "LlcResult") -> bool:
        return self.ready < other.ready


@dataclass
class LlcStats:
    reads: int = 0
    writes: int = 0
    hits: int = 0
    misses: int = 0
    pointer_updates: int = 0
    pointer_invalidations: int = 0
    stalled_cycles: int = 0


class LlcSlice:
    """One LLC slice + its core-pointer table."""

    def __init__(self, node_id: int, cfg: LlcConfig, controller: MemoryController,
                 output_capacity: int = 8) -> None:
        self.node_id = node_id
        self.cfg = cfg
        self.cache = SetAssociativeCache(cfg.sets_per_slice, cfg.assoc)
        self.mshrs = MshrFile(cfg.mshrs)
        self.controller = controller
        self.input: Deque[LlcRequest] = deque()
        self.input_capacity = cfg.input_queue
        self.output: Deque[LlcResult] = deque()
        self.output_capacity = output_capacity
        self._pending: List[LlcResult] = []  # (hit results in flight), heap
        self.stats = LlcStats()

    # -- admission (the NIC's ejection gate) ----------------------------

    def can_accept(self) -> bool:
        return len(self.input) < self.input_capacity

    def enqueue(self, req: LlcRequest) -> bool:
        if not self.can_accept():
            return False
        self.input.append(req)
        return True

    # -- pointer table ---------------------------------------------------

    def pointer_of(self, block: int) -> Optional[int]:
        meta = self.cache.meta(block)
        return meta if isinstance(meta, int) else None

    def invalidate_pointer(self, block: int) -> None:
        if self.pointer_of(block) is not None:
            self.cache.set_meta(block, None)
            self.stats.pointer_invalidations += 1

    def drop_all_pointers(self) -> int:
        """GPU L1 flush: every core pointer becomes stale, so drop them."""
        dropped = 0
        for block in list(self.cache.blocks()):
            if self.pointer_of(block) is not None:
                self.cache.set_meta(block, None)
                dropped += 1
        self.stats.pointer_invalidations += dropped
        return dropped

    # -- per-cycle operation ----------------------------------------------

    def step(self, cycle: int) -> None:
        # retire in-flight hit results whose latency elapsed
        while self._pending and self._pending[0].ready <= cycle:
            self.output.append(heapq.heappop(self._pending))
        # lookup pipeline: one request per cycle, stalled when the output
        # side (reply injection) is congested or a read miss has no MSHR
        if not self.input:
            return
        if self.lookup_blocked():
            self.stats.stalled_cycles += 1
            return
        req = self.input.popleft()
        if not req.is_write and not self.cache.contains(req.block):
            # read miss: join the block's MSHR, or take one and a
            # controller queue slot
            self.stats.reads += 1
            self.stats.misses += 1
            if self.mshrs.has(req.block):
                self.mshrs.add_waiter(req.block, req)
                return
            self.cache.misses += 1
            self.mshrs.allocate(req.block, req)
            self.controller.submit(req.block, False, cycle, self._on_fill)
            return
        if req.is_write:
            self._do_write(req, cycle)
        else:
            self._do_read_hit(req, cycle)

    def lookup_blocked(self) -> bool:
        """Whether the lookup of the queued head request stalls (``step``
        counts a stalled cycle and moves nothing): it waits behind a full
        output queue, or is a read miss with no MSHR to join or take, or
        no controller slot.  Only a drained output queue, a fill or a
        controller issue lifts that (the memory node's sleep rests on it)."""
        if len(self.output) >= self.output_capacity:
            return True
        req = self.input[0]
        return not (
            req.is_write or self.cache.contains(req.block) or self.mshrs.has(req.block)
        ) and (self.mshrs.full or not self.controller.can_accept())

    def _do_read_hit(self, req: LlcRequest, cycle: int) -> None:
        pointer = self.pointer_of(req.block)
        self.cache.lookup(req.block)
        self.stats.reads += 1
        self.stats.hits += 1
        if req.gpu_core:
            self.cache.set_meta(req.block, req.requester)
            self.stats.pointer_updates += 1
        heapq.heappush(
            self._pending,
            LlcResult(req, hit=True, pointer=pointer, ready=cycle + self.cfg.hit_latency),
        )

    def _do_write(self, req: LlcRequest, cycle: int) -> None:
        """Write-through from the L1s: update/allocate and kill the pointer."""
        self.stats.writes += 1
        if self.cache.contains(req.block):
            self.cache.lookup(req.block)
            self.stats.hits += 1
        else:
            self.cache.misses += 1
            self.stats.misses += 1
            # write-through: an evicted line has nothing dirty to write back
            self.cache.insert(req.block, None)
        # the write invalidates the core pointer so later readers get the
        # up-to-date copy from the LLC (Section IV, coherence implications)
        if self.cfg.pointer_invalidate_on_write:
            self.invalidate_pointer(req.block)
        heapq.heappush(
            self._pending,
            LlcResult(req, hit=True, pointer=None, ready=cycle + self.cfg.hit_latency),
        )

    def _on_fill(self, block: int, cycle: int) -> None:
        """Memory controller returned ``block``: fill and wake waiters."""
        waiters = self.mshrs.release(block)
        first = waiters[0]
        self.cache.insert(block, first.requester if first.gpu_core else None)
        if first.gpu_core:
            self.stats.pointer_updates += 1
        for req in waiters:
            self.output.append(LlcResult(req, hit=False, pointer=None, ready=cycle))

    # -- output side -------------------------------------------------------

    def pop_result(self) -> Optional[LlcResult]:
        return self.output.popleft() if self.output else None

    def peek_result(self) -> Optional[LlcResult]:
        return self.output[0] if self.output else None
