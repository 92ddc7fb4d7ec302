"""GPU software coherence (Sections II and IV).

GPUs keep their L1 caches coherent in software: L1s are write-through,
and compiler-inserted cache-control operations flush (invalidate) them at
synchronisation boundaries such as kernel launch/completion.  Delegated
Replies lives inside this coherence domain:

* every write-through to the LLC invalidates the block's core pointer, so
  readers after a write are always served the fresh copy by the LLC;
* an L1 flush makes every pointer into that L1 stale, so the flush also
  drops all LLC core pointers;
* delegation therefore only ever serves shared *read-only* data — which
  dominates GPU sharing [61].

``SoftwareCoherenceController`` orchestrates flushes across the system and
models their cost: flushing is not free, each core is prevented from
issuing for ``flush_penalty`` cycles (pipeline drain + tag-array sweep).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List


@dataclass
class CoherenceStats:
    flushes: int = 0
    lines_invalidated: int = 0
    pointers_dropped: int = 0


class SoftwareCoherenceController:
    """Coordinates kernel-boundary flushes of the GPU coherence domain."""

    def __init__(self, gpu_cores: List, memory_nodes: List, flush_penalty: int = 50):
        self.gpu_cores = gpu_cores
        self.memory_nodes = memory_nodes
        self.flush_penalty = flush_penalty
        self.stats = CoherenceStats()

    def kernel_boundary(self, cycle: int) -> None:
        """Flush every GPU L1 and drop every LLC core pointer."""
        self.stats.flushes += 1
        for core in self.gpu_cores:
            self.stats.lines_invalidated += core.flush_l1()
            core.stall(cycle + self.flush_penalty)
        for mem in self.memory_nodes:
            self.stats.pointers_dropped += mem.flush_pointers()
