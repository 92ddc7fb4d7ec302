"""Property-based tests on structural components (no full-system runs)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.cache import MshrFile
from repro.config.loader import config_from_dict
from repro.config.system import ConfigError, DimensionOrder, Topology
from repro.noc.routing import route_path
from repro.noc.topology import build_topology
from repro.workloads.gpu import (
    GpuTraceGenerator,
    SharedWavefront,
    gpu_benchmark,
    GPU_BENCHMARK_NAMES,
)


class TestTopologyProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(list(Topology)),
        src=st.integers(0, 63),
        dst=st.integers(0, 63),
        order=st.sampled_from(list(DimensionOrder)),
    )
    def test_dor_table_always_reaches_destination(self, kind, src, dst, order):
        if src == dst:
            return
        topo = build_topology(kind, 8, 8)
        path = route_path(topo, topo.dor_ports(order), src, dst)
        assert path[-1] == dst
        assert all(b in topo.neighbors(a) for a, b in zip(path, path[1:]))
        # no route is shorter than the shortest path (BFS over the links)
        dist, queue = {src: 0}, [src]
        for r in queue:
            for nb in topo.neighbors(r):
                if nb not in dist:
                    dist[nb] = dist[r] + 1
                    queue.append(nb)
        hops = len(path) - 1
        assert hops >= dist[dst]

    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(list(Topology)))
    def test_adjacency_is_symmetric(self, kind):
        topo = build_topology(kind, 8, 8)
        for a in range(topo.n):
            for b in topo.neighbors(a):
                assert a in topo.neighbors(b)

    @settings(max_examples=20, deadline=None)
    @given(
        kind=st.sampled_from(list(Topology)),
        src=st.integers(0, 63),
        dst=st.integers(0, 63),
    )
    def test_route_length_symmetry(self, kind, src, dst):
        topo = build_topology(kind, 8, 8)
        for order in DimensionOrder:
            table = topo.dor_ports(order)
            assert len(route_path(topo, table, src, dst)) == len(
                route_path(topo, table, dst, src)
            )


class TestMshrProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 15), st.integers(0, 7)),
            min_size=1,
            max_size=60,
        )
    )
    def test_waiters_conserved(self, ops):
        """Every waiter added is returned by exactly one release."""
        m = MshrFile(64)
        added, released = [], []
        for i, (block, _) in enumerate(ops):
            tag = (block, i)
            if m.has(block):
                m.add_waiter(block, tag)
            else:
                m.allocate(block, tag)
            added.append(tag)
        for block in list(m.outstanding_blocks()):
            released.extend(m.release(block))
        assert sorted(released) == sorted(added)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 30), min_size=1, max_size=50))
    def test_remove_waiters_preserves_the_rest(self, blocks):
        m = MshrFile(64)
        for i, block in enumerate(blocks):
            tag = ("remote" if i % 2 else "local", i)
            if m.has(block):
                m.add_waiter(block, tag)
            else:
                m.allocate(block, tag)
        for block in list(m.outstanding_blocks()):
            before = m.waiters(block)
            removed = m.remove_waiters(block, lambda w: w[0] == "remote")
            remaining = m.waiters(block)
            assert all(w[0] == "remote" for w in removed)
            assert all(w[0] == "local" for w in remaining)
            assert len(removed) + len(remaining) == len(before)


class TestConfigRoundTripProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        width=st.sampled_from([8, 16, 32]),
        vcs=st.integers(1, 4),
        depth=st.integers(1, 8),
        topology=st.sampled_from([t.value for t in Topology]),
    )
    def test_dump_load_identity(self, width, vcs, depth, topology):
        data = {
            "noc": {
                "channel_width_bytes": width,
                "vcs_per_port": vcs,
                "vc_depth_flits": depth,
                "topology": topology,
            }
        }
        if topology == "dragonfly" and vcs < 2:
            # a dragonfly needs two VCs per class (SystemConfig.validate)
            with pytest.raises(ConfigError, match="noc.vcs_per_port"):
                config_from_dict(data)
            return
        cfg = config_from_dict(data)
        assert config_from_dict(cfg.to_dict()) == cfg


class TestGeneratorProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        bench=st.sampled_from(GPU_BENCHMARK_NAMES),
        seed=st.integers(0, 1000),
    )
    def test_streams_deterministic_and_region_bound(self, bench, seed):
        profile = gpu_benchmark(bench)
        mk = lambda: GpuTraceGenerator(
            profile, 3, SharedWavefront(profile), seed=seed
        )
        g1, g2 = mk(), mk()
        for _ in range(50):
            a, b = g1.next_access(), g2.next_access()
            assert a == b
            block, is_write = a
            assert block >= (1 << 32)  # inside a declared region
            if not profile.writes_shared and block < (2 << 32):
                assert not is_write  # shared region is read-only
