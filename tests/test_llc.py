"""Tests for the LLC slice and its core-pointer table."""

from repro.cache.llc import LlcRequest, LlcSlice
from repro.config.system import DramConfig, LlcConfig
from repro.mem.dram import MemoryController
from repro.noc.packet import TrafficClass


def make_slice(**cfg_kw):
    cfg = LlcConfig(**cfg_kw)
    mc = MemoryController(DramConfig(), line_bytes=cfg.line_bytes)
    return LlcSlice(0, cfg, mc), mc


def gpu_read(requester, block, dnf=False):
    return LlcRequest(
        requester=requester,
        block=block,
        is_write=False,
        cls=TrafficClass.GPU,
        dnf=dnf,
        gpu_core=True,
        orig_block=block,
    )


def gpu_write(requester, block):
    return LlcRequest(
        requester=requester,
        block=block,
        is_write=True,
        cls=TrafficClass.GPU,
        gpu_core=True,
        orig_block=block,
    )


def run_until_result(llc, mc, start=0, limit=500):
    for cyc in range(start, start + limit):
        mc.step(cyc)
        mc.drain_completions(cyc)
        llc.step(cyc)
        res = llc.pop_result()
        if res is not None:
            return res, cyc
    raise AssertionError("no result produced")


class TestMissAndFill:
    def test_cold_read_goes_to_dram_and_fills(self):
        llc, mc = make_slice()
        llc.enqueue(gpu_read(7, 0x100))
        res, _ = run_until_result(llc, mc)
        assert not res.hit
        assert llc.cache.contains(0x100)
        assert llc.stats.misses == 1

    def test_second_read_hits(self):
        llc, mc = make_slice()
        llc.enqueue(gpu_read(7, 0x100))
        run_until_result(llc, mc)
        llc.enqueue(gpu_read(8, 0x100))
        res, _ = run_until_result(llc, mc, start=600)
        assert res.hit
        assert llc.stats.hits == 1

    def test_mshr_merges_same_block(self):
        llc, mc = make_slice()
        llc.enqueue(gpu_read(1, 0x50))
        llc.enqueue(gpu_read(2, 0x50))
        results = []
        for cyc in range(500):
            mc.step(cyc)
            mc.drain_completions(cyc)
            llc.step(cyc)
            while True:
                r = llc.pop_result()
                if r is None:
                    break
                results.append(r)
        assert len(results) == 2
        assert mc.served == 1  # one DRAM access for both waiters


class TestCorePointers:
    def test_miss_fill_sets_pointer_to_requester(self):
        llc, mc = make_slice()
        llc.enqueue(gpu_read(7, 0x100))
        run_until_result(llc, mc)
        assert llc.pointer_of(0x100) == 7

    def test_hit_returns_previous_pointer_then_updates(self):
        llc, mc = make_slice()
        llc.enqueue(gpu_read(7, 0x100))
        run_until_result(llc, mc)
        llc.enqueue(gpu_read(9, 0x100))
        res, _ = run_until_result(llc, mc, start=600)
        assert res.pointer == 7      # the delegation candidate
        assert llc.pointer_of(0x100) == 9  # updated to the new accessor

    def test_cpu_reads_do_not_set_pointers(self):
        llc, mc = make_slice()
        req = LlcRequest(
            requester=3, block=0x40, is_write=False,
            cls=TrafficClass.CPU, gpu_core=False, orig_block=0x80,
        )
        llc.enqueue(req)
        run_until_result(llc, mc)
        assert llc.pointer_of(0x40) is None

    def test_write_invalidates_pointer(self):
        # Section IV: a write invalidates the core pointer so later readers
        # get the fresh copy from the LLC
        llc, mc = make_slice()
        llc.enqueue(gpu_read(7, 0x100))
        run_until_result(llc, mc)
        llc.enqueue(gpu_write(9, 0x100))
        res, _ = run_until_result(llc, mc, start=600)
        assert llc.pointer_of(0x100) is None
        assert llc.stats.pointer_invalidations >= 1

    def test_write_keeps_a_stale_pointer_when_invalidation_is_off(self):
        # the ``no_pointer_invalidation`` ablation: the pointer survives
        # the write and still names the core that read the old data
        llc, mc = make_slice(pointer_invalidate_on_write=False)
        llc.enqueue(gpu_read(7, 0x100))
        run_until_result(llc, mc)
        llc.enqueue(gpu_write(9, 0x100))
        run_until_result(llc, mc, start=600)
        assert llc.pointer_of(0x100) == 7
        assert llc.stats.pointer_invalidations == 0

    def test_flush_drops_all_pointers(self):
        llc, mc = make_slice()
        for i, blk in enumerate((0x10, 0x20, 0x30)):
            llc.enqueue(gpu_read(i, blk))
            run_until_result(llc, mc, start=600 * i)
        dropped = llc.drop_all_pointers()
        assert dropped == 3
        assert llc.pointer_of(0x10) is None

    def test_eviction_discards_pointer_with_line(self):
        llc, mc = make_slice(slice_size_bytes=16 * 128, assoc=16)  # 1 set
        for i in range(17):
            llc.enqueue(gpu_read(1, i))
            run_until_result(llc, mc, start=700 * i)
        assert not llc.cache.contains(0)  # evicted by the 17th fill
        assert llc.pointer_of(0) is None


class TestBackpressure:
    def test_full_output_stalls_lookup_pipeline(self):
        llc, mc = make_slice()
        llc.output_capacity = 1
        # a hit result parks in the output queue; nobody drains it
        llc.enqueue(gpu_read(1, 0x10))
        for cyc in range(100):
            mc.step(cyc)
            mc.drain_completions(cyc)
            llc.step(cyc)
        assert len(llc.output) == 1
        llc.enqueue(gpu_read(1, 0x20))
        llc.enqueue(gpu_read(1, 0x30))
        stalled_before = llc.stats.stalled_cycles
        for cyc in range(100, 130):
            llc.step(cyc)
        assert llc.stats.stalled_cycles > stalled_before

    def test_input_queue_capacity_gates_admission(self):
        llc, mc = make_slice(input_queue=2)
        assert llc.enqueue(gpu_read(1, 1))
        assert llc.enqueue(gpu_read(1, 2))
        assert not llc.can_accept()
        assert not llc.enqueue(gpu_read(1, 3))
