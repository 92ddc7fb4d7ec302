"""Tests for the shared-L1 organisations (DC-L1 and DynEB)."""

from repro.config.system import GpuCacheConfig
from repro.gpu.shared_l1 import (
    BUSY,
    DynEBPort,
    HIT,
    MISS,
    PrivateL1,
    SharedL1Cluster,
    SharedL1Port,
)


def small_l1():
    return GpuCacheConfig(size_bytes=4 * 1024)  # 32 lines


class TestPrivateL1:
    def test_hit_miss_and_latency(self):
        l1 = PrivateL1(small_l1())
        state, lat = l1.access(0x10, 0)
        assert state == MISS
        l1.fill(0x10)
        state, lat = l1.access(0x10, 1)
        assert state == HIT
        assert lat == small_l1().hit_latency

    def test_never_busy(self):
        l1 = PrivateL1(small_l1())
        for i in range(10):
            state, _ = l1.access(i, 0)  # all in the same cycle
            assert state in (HIT, MISS)


class TestDcL1Cluster:
    def test_slice_port_conflict_serialises(self):
        cluster = SharedL1Cluster(small_l1(), cores_per_cluster=8, n_slices=4)
        block = 0x40
        s = cluster.slice_of(block)
        st1, _ = cluster.try_access(0, block, cycle=5)
        st2, _ = cluster.try_access(1, block, cycle=5)
        assert st1 == MISS
        assert st2 == BUSY
        st3, _ = cluster.try_access(1, block, cycle=6)
        assert st3 in (HIT, MISS)

    def test_different_slices_no_conflict(self):
        cluster = SharedL1Cluster(small_l1())
        b0, b1 = 0, 4  # (b >> 2) % 4 -> slices 0 and 1
        assert cluster.slice_of(b0) != cluster.slice_of(b1)
        st1, _ = cluster.try_access(0, b0, cycle=3)
        st2, _ = cluster.try_access(1, b1, cycle=3)
        assert BUSY not in (st1, st2)

    def test_shared_capacity_aggregates_private(self):
        cfg = small_l1()
        cluster = SharedL1Cluster(cfg, cores_per_cluster=8, n_slices=4)
        total_lines = sum(
            s.num_sets * s.assoc for s in cluster.slices
        )
        private_lines = cfg.num_sets * cfg.assoc * 8
        assert total_lines == private_lines

    def test_shared_data_stored_once(self):
        cluster = SharedL1Cluster(small_l1())
        p0 = SharedL1Port(cluster, 0)
        p1 = SharedL1Port(cluster, 1)
        p0.fill(0x99)
        assert p1.contains(0x99)  # no duplication across "cores"

    def test_remote_slice_latency_penalty(self):
        cluster = SharedL1Cluster(small_l1(), remote_slice_latency=4)
        block = 0  # slice 0
        cluster.fill(block)
        _, local = cluster.try_access(0, block, cycle=1)   # slot 0 -> slice 0
        _, remote = cluster.try_access(1, block, cycle=2)  # slot 1 -> remote
        assert remote == local + 4

    def test_conflict_rate_tracking(self):
        cluster = SharedL1Cluster(small_l1())
        cluster.try_access(0, 0, cycle=0)
        cluster.try_access(1, 0, cycle=0)
        assert cluster.port_conflicts == 1
        assert 0 < cluster.conflict_rate <= 0.5


class TestDynEB:
    def make_port(self, sample=100):
        cluster = SharedL1Cluster(small_l1())
        return DynEBPort(cluster, 0, small_l1(), sample_cycles=sample), cluster

    def test_starts_shared(self):
        port, _ = self.make_port()
        assert port.mode == "shared"

    def test_reverts_to_private_under_contention(self):
        port, cluster = self.make_port(sample=10)
        # generate heavy same-slice contention
        for cyc in range(30):
            cluster.try_access(0, 0, cycle=cyc)
            cluster.try_access(1, 0, cycle=cyc)
        port.access(0x123, cycle=50)
        assert port.mode == "private"
        assert port.switched_at is not None

    def test_stays_shared_without_contention(self):
        port, cluster = self.make_port(sample=10)
        for cyc in range(30):
            cluster.try_access(0, cyc * 16, cycle=cyc)
        port.access(0x123, cycle=50)
        assert port.mode == "shared"

    def test_private_mode_uses_private_cache(self):
        port, _ = self.make_port(sample=0)
        port.mode = "private"
        port.fill(0x55)
        assert port.private.contains(0x55)
        assert not port.cluster.contains(0x55)
