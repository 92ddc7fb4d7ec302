"""Set-associative cache with LRU replacement and MSHRs.

Addresses are *block ids* (byte address divided by the line size); the
cache only tracks presence, recency and a small per-line metadata slot —
enough for timing simulation, which never needs actual data bytes.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, List, Optional


class SetAssociativeCache:
    """LRU set-associative cache over integer block ids."""

    def __init__(self, num_sets: int, assoc: int) -> None:
        if num_sets < 1 or assoc < 1:
            raise ValueError("cache needs at least one set and one way")
        self.num_sets = num_sets
        self.assoc = assoc
        #: per-set LRU order: oldest first; maps block -> metadata
        self._sets: List[OrderedDict] = [OrderedDict() for _ in range(num_sets)]
        self.hits = 0
        self.misses = 0
        #: ``watcher(block, +1)`` on a fill, ``(block, -1)`` on eviction,
        #: invalidation and flush; None costs each site one check
        self.watcher = None

    def _set_of(self, block: int) -> OrderedDict:
        return self._sets[block % self.num_sets]

    def lookup(self, block: int) -> bool:
        """Access ``block``: True on hit (and refresh LRU)."""
        s = self._sets[block % self.num_sets]
        if block in s:
            s.move_to_end(block)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def contains(self, block: int) -> bool:
        """Presence check without touching LRU state or counters."""
        return block in self._sets[block % self.num_sets]

    def insert(self, block: int, meta: object = True) -> Optional[int]:
        """Fill ``block``; returns the evicted block id, if any."""
        s = self._set_of(block)
        victim = None
        if block in s:
            s.move_to_end(block)
            s[block] = meta
            return None
        if len(s) >= self.assoc:
            victim, _ = s.popitem(last=False)
        s[block] = meta
        if self.watcher is not None:
            self.watcher(block, 1)
            if victim is not None:
                self.watcher(victim, -1)
        return victim

    def meta(self, block: int) -> object:
        return self._set_of(block).get(block)

    def set_meta(self, block: int, meta: object) -> None:
        s = self._set_of(block)
        if block in s:
            s[block] = meta

    def invalidate(self, block: int) -> bool:
        s = self._set_of(block)
        if block in s:
            del s[block]
            if self.watcher is not None:
                self.watcher(block, -1)
            return True
        return False

    def flush(self) -> int:
        """Invalidate everything (GPU software-coherence flush); returns the
        number of lines dropped."""
        dropped = sum(len(s) for s in self._sets)
        if self.watcher is not None:
            for block in self.blocks():
                self.watcher(block, -1)
        for s in self._sets:
            s.clear()
        return dropped

    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)

    def blocks(self) -> Iterable[int]:
        for s in self._sets:
            yield from s.keys()

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class MshrFile:
    """Miss Status Holding Registers: merges outstanding misses per block.

    A waiter is an opaque object the owner interprets (a warp id, a remote
    requester id, ...).  One entry per distinct outstanding block.
    """

    def __init__(self, entries: int) -> None:
        if entries < 1:
            raise ValueError("MSHR file needs at least one entry")
        self.capacity = entries
        self._entries: Dict[int, List[object]] = {}
        self.peak = 0
        #: ``watcher(block, +1)`` on allocate, ``(block, -1)`` on release
        self.watcher = None

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    def has(self, block: int) -> bool:
        return block in self._entries

    def allocate(self, block: int, waiter: object) -> None:
        """Create a new entry for a primary miss."""
        if block in self._entries:
            raise ValueError(f"MSHR for block {block:#x} already allocated")
        if self.full:
            raise RuntimeError("MSHR file full")
        self._entries[block] = [waiter]
        self.peak = max(self.peak, len(self._entries))
        if self.watcher is not None:
            self.watcher(block, 1)

    def add_waiter(self, block: int, waiter: object) -> None:
        """Merge a secondary miss into an existing entry."""
        self._entries[block].append(waiter)

    def waiters(self, block: int) -> List[object]:
        return list(self._entries.get(block, ()))

    def remove_waiters(self, block: int, predicate) -> List[object]:
        """Remove and return the waiters of ``block`` matching ``predicate``.

        The entry itself stays allocated (the miss is still outstanding);
        used by the delegation watchdog to time out parked remote waiters.
        """
        entry = self._entries.get(block)
        if entry is None:
            return []
        removed = [w for w in entry if predicate(w)]
        if removed:
            entry[:] = [w for w in entry if not predicate(w)]
        return removed

    def release(self, block: int) -> List[object]:
        """Retire the entry (the fill arrived); returns its waiters."""
        if self.watcher is not None:
            self.watcher(block, -1)
        return self._entries.pop(block)

    def outstanding_blocks(self) -> Iterable[int]:
        return self._entries.keys()
