"""Forwarded Request Queue (FRQ) — Section IV, Figure 8.

Each GPU core gains a small queue holding the delegated replies (remote
memory requests) sent to it.  The paper does not merge requests: only
4.8% of FRQ entries access the same block, and merging would require NoC
multicast.  ``delegation.frq_merge`` merges a request into a queued
same-block entry as an ablation (``GpuCore`` keeps the merged
requesters); with at most two entries ever queued here it finds nothing
to merge (EXPERIMENTS.md, ablations).  A full FRQ refuses further
ejections, back-pressuring the request network.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

#: an FRQ entry: (requesting core, block id, arrival cycle)
FrqEntry = Tuple[int, int, int]


class ForwardedRequestQueue:
    """Bounded FIFO of delegated requests awaiting L1 service."""

    def __init__(self, capacity: int = 8) -> None:
        if capacity < 1:
            raise ValueError("FRQ needs at least one entry")
        self.capacity = capacity
        self._q: Deque[FrqEntry] = deque()
        self.peak = 0
        self.total_enqueued = 0
        self.rejected = 0
        #: pushes that found a same-block entry already queued.  The paper
        #: measured 4.8% and decided merging was not worth NoC multicast.
        self.merge_opportunities = 0

    def __len__(self) -> int:
        return len(self._q)

    @property
    def full(self) -> bool:
        return len(self._q) >= self.capacity

    def contains_block(self, block: int) -> bool:
        return any(entry[1] == block for entry in self._q)

    def push(self, requester: int, block: int, cycle: int) -> bool:
        if self.contains_block(block):
            self.merge_opportunities += 1
        if self.full:
            self.rejected += 1
            return False
        self._q.append((requester, block, cycle))
        self.total_enqueued += 1
        self.peak = max(self.peak, len(self._q))
        return True

    def peek(self) -> Optional[FrqEntry]:
        return self._q[0] if self._q else None

    def pop(self) -> FrqEntry:
        return self._q.popleft()
