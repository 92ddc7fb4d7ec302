"""GPU L1 organisations: private, DC-L1 (static shared) and DynEB.

Sharing L1 caches among GPU cores trades *capacity* (shared data is stored
once) against *bandwidth* (concurrent accesses to a slice serialise).
DC-L1 [30] statically shares one L1 of four slices among eight GPU cores;
DynEB [29] monitors the effective bandwidth and falls back to the private
organisation when slice contention hurts (which the paper observes for NN
and 2DCON).  Section VII shows these schemes are orthogonal to Delegated
Replies: they do not remove NoC clogging.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.cache.cache import SetAssociativeCache
from repro.config.system import GpuCacheConfig

#: result states of an L1 access
HIT = "hit"
MISS = "miss"
BUSY = "busy"


class PrivateL1:
    """The baseline per-core private L1."""

    def __init__(self, cfg: GpuCacheConfig) -> None:
        self.cache = SetAssociativeCache(cfg.num_sets, cfg.assoc)
        self.hit_latency = cfg.hit_latency
        #: presence check without touching LRU state: the cache's own,
        #: one call on the GPU sleep check's hot path
        self.contains = self.cache.contains

    def access(self, block: int, cycle: int) -> Tuple[str, int]:
        if self.cache.lookup(block):
            return HIT, self.hit_latency
        return MISS, 0

    def fill(self, block: int) -> Optional[int]:
        return self.cache.insert(block)

    def flush(self) -> int:
        return self.cache.flush()


class SharedL1Cluster:
    """DC-L1: one shared L1 of ``n_slices`` address-hashed slices per
    cluster of GPU cores.  Each slice serves one access per cycle; a busy
    slice port is the serialisation cost of sharing."""

    def __init__(
        self,
        cfg: GpuCacheConfig,
        cores_per_cluster: int = 8,
        n_slices: int = 4,
        remote_slice_latency: int = 4,
    ) -> None:
        self.cfg = cfg
        self.cores_per_cluster = cores_per_cluster
        self.n_slices = n_slices
        self.remote_slice_latency = remote_slice_latency
        # aggregate capacity equals the cores' private capacity, re-sliced
        total_lines = cfg.num_sets * cfg.assoc * cores_per_cluster
        lines_per_slice = total_lines // n_slices
        assoc = max(cfg.assoc, 8)
        self.slices = [
            SetAssociativeCache(max(1, lines_per_slice // assoc), assoc)
            for _ in range(n_slices)
        ]
        self._slice_busy_cycle = [-1] * n_slices
        self.port_conflicts = 0
        self.accesses = 0

    def slice_of(self, block: int) -> int:
        return (block >> 2) % self.n_slices

    def try_access(self, core_slot: int, block: int, cycle: int) -> Tuple[str, int]:
        """Access from cluster-local core ``core_slot``; may be BUSY."""
        s = self.slice_of(block)
        self.accesses += 1
        if self._slice_busy_cycle[s] == cycle:
            self.port_conflicts += 1
            return BUSY, 0
        self._slice_busy_cycle[s] = cycle
        extra = self.remote_slice_latency if (core_slot % self.n_slices) != s else 0
        if self.slices[s].lookup(block):
            return HIT, self.cfg.hit_latency + extra
        return MISS, 0

    def contains(self, block: int) -> bool:
        return self.slices[self.slice_of(block)].contains(block)

    def fill(self, block: int) -> Optional[int]:
        return self.slices[self.slice_of(block)].insert(block)

    def flush(self) -> int:
        return sum(s.flush() for s in self.slices)

    @property
    def conflict_rate(self) -> float:
        return self.port_conflicts / self.accesses if self.accesses else 0.0


class SharedL1Port:
    """A core's view of its cluster's shared L1 (DC-L1 mode)."""

    def __init__(self, cluster: SharedL1Cluster, core_slot: int) -> None:
        self.cluster = cluster
        self.core_slot = core_slot

    def access(self, block: int, cycle: int) -> Tuple[str, int]:
        return self.cluster.try_access(self.core_slot, block, cycle)

    def contains(self, block: int) -> bool:
        return self.cluster.contains(block)

    def fill(self, block: int) -> Optional[int]:
        return self.cluster.fill(block)

    def flush(self) -> int:
        return self.cluster.flush()


class DynEBPort:
    """DynEB [29]: start shared, sample slice contention, and revert the
    cluster to private L1s when sharing starves effective bandwidth."""

    #: port-conflict rate above which sharing is deemed harmful
    CONFLICT_THRESHOLD = 0.15

    def __init__(
        self,
        cluster: SharedL1Cluster,
        core_slot: int,
        private_cfg: GpuCacheConfig,
        sample_cycles: int = 2_000,
    ) -> None:
        self.shared = SharedL1Port(cluster, core_slot)
        self.private = PrivateL1(private_cfg)
        self.cluster = cluster
        self.sample_cycles = sample_cycles
        self.mode = "shared"
        self.switched_at: Optional[int] = None

    def _maybe_switch(self, cycle: int) -> None:
        if self.mode != "shared" or cycle < self.sample_cycles:
            return
        if self.cluster.conflict_rate > self.CONFLICT_THRESHOLD:
            self.mode = "private"
            self.switched_at = cycle
            self.private.flush()
            for cache in self.cluster.slices:  # one reader fewer
                if cache.watcher is not None:
                    cache.watcher.unview(cache)

    def _backend(self):
        return self.shared if self.mode == "shared" else self.private

    def access(self, block: int, cycle: int) -> Tuple[str, int]:
        self._maybe_switch(cycle)
        return self._backend().access(block, cycle)

    def contains(self, block: int) -> bool:
        return self._backend().contains(block)

    def fill(self, block: int) -> Optional[int]:
        return self._backend().fill(block)

    def flush(self) -> int:
        return self._backend().flush()
