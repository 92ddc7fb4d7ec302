"""Tests for the synthetic workload generators and Table II mixes."""

import pytest

from repro.workloads import (
    CPU_BENCHMARKS,
    GPU_BENCHMARKS,
    CpuTraceGenerator,
    GpuTraceGenerator,
    SharedWavefront,
    TABLE_II,
    cpu_benchmark,
    gpu_benchmark,
)
from repro.workloads.cpu import _CPU_REGION
from repro.workloads.gpu import _PRIVATE_REGION, _SHARED_REGION


class TestTableII:
    def test_eleven_gpu_benchmarks(self):
        assert len(GPU_BENCHMARKS) == 11
        assert set(TABLE_II) == set(GPU_BENCHMARKS)

    def test_thirty_three_mixes(self):
        assert sum(len(cpus) for cpus in TABLE_II.values()) == 33

    def test_each_gpu_bench_has_three_corunners(self):
        for gpu, cpus in TABLE_II.items():
            assert len(cpus) == 3
            for c in cpus:
                assert c in CPU_BENCHMARKS

    def test_table_ii_rows_match_paper(self):
        assert TABLE_II["HS"] == ("bodytrack", "ferret", "x264")
        assert TABLE_II["BP"] == ("blackscholes", "bodytrack", "ferret")
        assert TABLE_II["2DCON"] == ("blackscholes", "canneal", "dedup")

    def test_grid_dims_match_paper(self):
        assert gpu_benchmark("HS").grid_dim == (342, 342, 1)
        assert gpu_benchmark("BP").grid_dim == (1, 16384, 1)
        assert gpu_benchmark("MM").grid_dim == (1000, 2000, 1)

    def test_lookup_is_case_insensitive(self):
        assert gpu_benchmark("hs").name == "HS"
        assert cpu_benchmark("VIPS").name == "vips"

    def test_unknown_benchmarks_raise(self):
        with pytest.raises(KeyError):
            gpu_benchmark("NOPE")
        with pytest.raises(KeyError):
            cpu_benchmark("nope")


class TestGpuGenerator:
    def make(self, bench="HS", core=0, seed=42, wavefront=None):
        profile = gpu_benchmark(bench)
        wf = wavefront or SharedWavefront(profile)
        return GpuTraceGenerator(profile, core, wf, seed=seed)

    def test_deterministic_given_seed(self):
        a = [self.make(seed=7).next_access() for _ in range(1)]
        g1, g2 = self.make(seed=7), self.make(seed=7)
        s1 = [g1.next_access() for _ in range(100)]
        # fresh wavefronts per generator; rebuild both identically
        g2 = self.make(seed=7)
        s2 = [g2.next_access() for _ in range(100)]
        assert s1 == s2

    def test_different_cores_differ(self):
        profile = gpu_benchmark("HS")
        wf = SharedWavefront(profile)
        g0 = GpuTraceGenerator(profile, 0, wf)
        g1 = GpuTraceGenerator(profile, 1, wf)
        s0 = [g0.next_access()[0] for _ in range(50)]
        s1 = [g1.next_access()[0] for _ in range(50)]
        assert s0 != s1

    def test_addresses_live_in_their_regions(self):
        g = self.make()
        for _ in range(500):
            block, _ = g.next_access()
            assert block >= _SHARED_REGION

    def test_private_blocks_disjoint_across_cores(self):
        profile = gpu_benchmark("SC")  # mostly private
        wf = SharedWavefront(profile)
        gens = [GpuTraceGenerator(profile, c, wf) for c in range(4)]
        privates = [set() for _ in gens]
        for g, seen in zip(gens, privates):
            for _ in range(400):
                b, _ = g.next_access()
                if b >= _PRIVATE_REGION:
                    seen.add(b)
        for i in range(4):
            for j in range(i + 1, 4):
                assert not (privates[i] & privates[j])

    def test_write_fraction_tracks_profile(self):
        g = self.make(bench="BP")
        writes = sum(g.next_access()[1] for _ in range(4000))
        frac = writes / 4000
        assert 0.25 < frac < 0.55  # profile says 0.42

    def test_read_only_shared_data(self):
        # non-BP benchmarks never write the shared region
        g = self.make(bench="HS")
        for _ in range(2000):
            block, is_write = g.next_access()
            if _SHARED_REGION <= block < _PRIVATE_REGION:
                assert not is_write

    def test_wavefront_creates_overlap(self):
        """Cores sampling the wavefront around the same time see the same
        blocks — the source of inter-core locality (Fig. 2)."""
        profile = gpu_benchmark("HS")
        wf = SharedWavefront(profile)
        g0 = GpuTraceGenerator(profile, 0, wf)
        g1 = GpuTraceGenerator(profile, 1, wf)
        s0, s1 = set(), set()
        for _ in range(300):
            b0, _ = g0.next_access()
            b1, _ = g1.next_access()
            if b0 < _PRIVATE_REGION:
                s0.add(b0)
            if b1 < _PRIVATE_REGION:
                s1.add(b1)
        overlap = len(s0 & s1) / max(1, min(len(s0), len(s1)))
        assert overlap > 0.3

    def test_lag_produces_old_blocks(self):
        profile = gpu_benchmark("3DCON")
        assert profile.p_lag > 0
        wf = SharedWavefront(profile)
        g = GpuTraceGenerator(profile, 0, wf)
        for _ in range(2000):
            g.next_access()
        # the wavefront advanced well past its lag distance
        assert wf.pos > profile.lag_distance / 2


class TestCpuGenerator:
    def test_reads_only(self):
        g = CpuTraceGenerator(cpu_benchmark("vips"), 0)
        assert all(not g.next_access()[1] for _ in range(200))

    def test_deterministic(self):
        g1 = CpuTraceGenerator(cpu_benchmark("dedup"), 3, seed=5)
        g2 = CpuTraceGenerator(cpu_benchmark("dedup"), 3, seed=5)
        assert [g1.next_access() for _ in range(100)] == [
            g2.next_access() for _ in range(100)
        ]

    def test_cores_have_disjoint_footprints(self):
        a = CpuTraceGenerator(cpu_benchmark("vips"), 0)
        b = CpuTraceGenerator(cpu_benchmark("vips"), 1)
        sa = {a.next_access()[0] for _ in range(500)}
        sb = {b.next_access()[0] for _ in range(500)}
        assert not (sa & sb)

    def test_dependency_fraction_ordering(self):
        # vips is the most latency-sensitive, dedup the least (Fig. 13)
        assert (
            cpu_benchmark("vips").dep_fraction
            > cpu_benchmark("bodytrack").dep_fraction
            > cpu_benchmark("dedup").dep_fraction
        )

    def test_reuse_produces_locality(self):
        g = CpuTraceGenerator(cpu_benchmark("swaptions"), 0)
        blocks = [g.next_access()[0] for _ in range(1000)]
        assert len(set(blocks)) < 700  # substantial reuse


def _gpu_streams(name, cores=(0, 1, 2), accesses=3000, seed=42):
    """``accesses`` (block, is_write) pairs of each of ``cores`` running
    GPU benchmark ``name`` on one shared wavefront."""
    profile = gpu_benchmark(name)
    wf = SharedWavefront(profile)
    gens = [GpuTraceGenerator(profile, c, wf, seed=seed) for c in cores]
    return {g.core_index: [g.next_access() for _ in range(accesses)]
            for g in gens}


@pytest.mark.parametrize("name", list(GPU_BENCHMARKS))
class TestEveryGpuProfile:
    """What the simulator takes for granted of every Table II GPU stream."""

    def test_blocks_stay_in_the_shared_window_or_the_cores_own(self, name):
        profile = gpu_benchmark(name)
        for core, stream in _gpu_streams(name).items():
            private = _PRIVATE_REGION + core * (1 << 24)
            for block, _ in stream:
                assert (_SHARED_REGION <= block < _SHARED_REGION + profile.shared_blocks
                        or private <= block < private + profile.private_blocks)

    def test_only_a_writes_shared_profile_writes_shared_data(self, name):
        """Pointer invalidation (Section IV) has work only where a
        profile writes the shared region: BP alone in Table II."""
        shared_writes = sum(
            is_write for stream in _gpu_streams(name).values()
            for block, is_write in stream if block < _PRIVATE_REGION)
        assert bool(shared_writes) == gpu_benchmark(name).writes_shared

    def test_private_writes_track_the_write_fraction(self, name):
        private = [is_write for stream in _gpu_streams(name).values()
                   for block, is_write in stream if block >= _PRIVATE_REGION]
        assert private
        measured = sum(private) / len(private)
        assert measured == pytest.approx(gpu_benchmark(name).write_fraction, abs=0.03)

    def test_private_footprints_are_disjoint_across_cores(self, name):
        footprints = [{b for b, _ in stream if b >= _PRIVATE_REGION}
                      for stream in _gpu_streams(name, cores=(0, 1, 2, 3)).values()]
        for i, mine in enumerate(footprints):
            assert mine
            for theirs in footprints[i + 1:]:
                assert not mine & theirs

    def test_the_stream_is_a_function_of_the_seed(self, name):
        assert _gpu_streams(name, seed=7) == _gpu_streams(name, seed=7)
        assert _gpu_streams(name, seed=7) != _gpu_streams(name, seed=8)


@pytest.mark.parametrize("name", list(CPU_BENCHMARKS))
class TestEveryCpuProfile:
    def test_reads_stay_in_the_cores_footprint(self, name):
        profile = cpu_benchmark(name)
        for core in (0, 5):
            g = CpuTraceGenerator(profile, core)
            base = _CPU_REGION + core * (1 << 24)
            for _ in range(2000):
                block, is_write = g.next_access()
                assert not is_write
                assert base <= block < base + profile.footprint_blocks

    def test_the_stream_is_a_function_of_the_seed(self, name):
        def stream(seed):
            g = CpuTraceGenerator(cpu_benchmark(name), 3, seed=seed)
            return [g.next_access() for _ in range(300)]

        assert stream(5) == stream(5)
        assert stream(5) != stream(6)
