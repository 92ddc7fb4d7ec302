"""Tests for the GPU SM core model, the FRQ and delegated-reply handling."""

import heapq
from collections import deque

import pytest

from repro.core.realistic_probing import ProbeEngine
from repro.gpu.core import _WRITE_CAP, GpuCore
from repro.gpu.shared_l1 import PrivateL1, SharedL1Cluster, SharedL1Port
from repro.mem.address import AddressMap
from repro.noc import MeshTopology, MessageType, NocFabric, Packet, TrafficClass
from repro.noc.packet import NetKind
from repro.workloads.gpu import GpuTraceGenerator, SharedWavefront, gpu_benchmark

from conftest import small_config


class Harness:
    """A single GPU core wired to a real fabric (no other endpoints)."""

    def __init__(self, cfg=None, probing=False, node=15, bench="HS"):
        self.cfg = cfg or small_config()
        topo = MeshTopology(self.cfg.mesh_width, self.cfg.mesh_height)
        self.fabric = NocFabric(topo, self.cfg.noc, mem_nodes=(4,))
        profile = gpu_benchmark(bench)
        trace = GpuTraceGenerator(profile, 0, SharedWavefront(profile))
        engine = None
        if probing:
            engine = ProbeEngine(self.cfg.probing, node, [node, 14, 13, 12])
        self.core = GpuCore(
            node_id=node,
            core_index=0,
            cfg=self.cfg,
            l1=PrivateL1(self.cfg.gpu_l1),
            trace=trace,
            nic=self.fabric.nic(node),
            addr_map=AddressMap((4,)),
            probe_engine=engine,
        )
        self.mem_seen = []
        self.fabric.nic(4).handler = lambda pkt, cyc: self.mem_seen.append(pkt)

    def run(self, cycles, start=0):
        for cyc in range(start, start + cycles):
            self.core.step(cyc)
            self.fabric.step(cyc)

    def deliver(self, pkt, cycle=0):
        self.core.on_packet(pkt, cycle)


class TestIssueAndMiss:
    def test_cold_misses_reach_memory_node(self):
        h = Harness()
        h.run(100)
        assert any(p.mtype is MessageType.READ_REQ for p in h.mem_seen)
        assert h.core.stats.l1_miss_ops > 0

    def test_mshr_bounds_outstanding_misses(self):
        h = Harness()
        h.run(400)
        assert len(h.core.mshrs) <= h.cfg.gpu_l1.mshrs

    def test_fill_wakes_warp_and_counts_insts(self):
        h = Harness()
        h.run(50)
        block = next(iter(h.core.mshrs.outstanding_blocks()))
        before = h.core.stats.insts
        h.deliver(
            Packet(4, 15, MessageType.READ_REPLY, TrafficClass.GPU, 9,
                   block=block),
            cycle=60,
        )
        assert h.core.stats.insts > before
        assert h.core.l1.contains(block)
        assert not h.core.mshrs.has(block)

    def test_writes_emit_write_through_and_ack_retires(self):
        h = Harness(bench="BP")  # write-heavy
        h.run(300)
        writes = [p for p in h.mem_seen if p.mtype is MessageType.WRITE_REQ]
        assert writes
        assert writes[0].size_flits == 9  # data-carrying write
        outstanding = h.core.outstanding_writes
        h.deliver(
            Packet(4, 15, MessageType.WRITE_ACK, TrafficClass.GPU, 1,
                   block=writes[0].block)
        )
        assert h.core.outstanding_writes == outstanding - 1


class TestFrq:
    def test_remote_hit_sends_c2c_reply(self):
        h = Harness()
        h.core.l1.fill(0xABC)
        h.deliver(
            Packet(4, 15, MessageType.DELEGATED_REQ, TrafficClass.GPU, 1,
                   block=0xABC, requester=9)
        )
        h.run(50, start=10)
        assert h.core.stats.frq_remote_hits == 1
        # the C2C reply was queued towards core 9 on the reply network
        sent = h.core.nic.packets_sent_net[NetKind.REPLY]
        assert sent >= 1

    def test_remote_miss_resends_dnf_to_llc(self):
        h = Harness()
        h.deliver(
            Packet(4, 15, MessageType.DELEGATED_REQ, TrafficClass.GPU, 1,
                   block=0xDEAD, requester=9)
        )
        h.run(80, start=10)
        assert h.core.stats.frq_remote_misses == 1
        dnf = [p for p in h.mem_seen if p.mtype is MessageType.DNF_REQ]
        assert len(dnf) == 1
        assert dnf[0].dnf
        assert dnf[0].requester == 9  # original requester preserved

    def test_delayed_hit_serves_after_fill(self):
        h = Harness()
        h.run(50)  # creates outstanding misses
        block = next(iter(h.core.mshrs.outstanding_blocks()))
        h.deliver(
            Packet(4, 15, MessageType.DELEGATED_REQ, TrafficClass.GPU, 1,
                   block=block, requester=9),
            cycle=50,
        )
        h.run(20, start=50)
        assert h.core.stats.frq_delayed_hits == 1
        # fill arrives -> C2C reply to core 9 gets queued
        h.deliver(
            Packet(4, 15, MessageType.READ_REPLY, TrafficClass.GPU, 9,
                   block=block),
            cycle=80,
        )
        assert any(dst == 9 for dst, _ in list(h.core._c2c_out))

    def test_full_frq_refuses_ejection(self):
        h = Harness()
        for i in range(h.cfg.gpu_l1.frq_entries):
            assert h.core.frq.push(9, 0x1000 + i, 0)
        pkt = Packet(4, 15, MessageType.DELEGATED_REQ, TrafficClass.GPU, 1,
                     block=0x2000, requester=9)
        assert not h.core.nic.can_eject(pkt)
        # data replies are still accepted
        rep = Packet(4, 15, MessageType.READ_REPLY, TrafficClass.GPU, 9,
                     block=0x2000)
        assert h.core.nic.can_eject(rep)

    def test_remote_requests_never_allocate_mshrs(self):
        # Section IV deadlock avoidance: the remote miss path must not
        # depend on local MSHR availability
        h = Harness()
        h.core.stall_until = 10_000  # no local issue interference
        h.deliver(
            Packet(4, 15, MessageType.DELEGATED_REQ, TrafficClass.GPU, 1,
                   block=0xBEEF, requester=9)
        )
        h.run(30, start=5)
        assert len(h.core.mshrs) == 0
        assert h.core.stats.frq_remote_misses == 1


class TestProbing:
    def test_probe_request_inflation(self):
        h = Harness(cfg=small_config(), probing=True)
        h.run(300)
        probes = [p for p in h.mem_seen if p.mtype is MessageType.PROBE_REQ]
        # probes go to other cores, not the memory node
        assert not probes
        assert h.core.probe.stats.probes_sent > 0

    def test_probe_hit_served_from_l1(self):
        cfg = small_config()
        h = Harness(cfg=cfg, probing=True)
        h.core.l1.fill(0x77)
        h.deliver(
            Packet(14, 15, MessageType.PROBE_REQ, TrafficClass.GPU, 1,
                   block=0x77, requester=14)
        )
        h.run(10, start=1)
        assert h.core.stats.probe_hits_served == 1

    def test_probe_miss_nacks(self):
        h = Harness(probing=True)
        h.deliver(
            Packet(14, 15, MessageType.PROBE_REQ, TrafficClass.GPU, 1,
                   block=0x5555, requester=14)
        )
        h.run(10, start=1)
        assert any(True for _ in h.core._nack_out) or \
            h.core.nic.packets_sent_net[NetKind.REPLY] >= 1

    def test_all_nacks_fall_back_to_llc(self):
        h = Harness(probing=True)
        engine = h.core.probe
        engine.begin(0x99, 2)
        h.core.mshrs.allocate(0x99, ("local", 0))
        h.deliver(Packet(14, 15, MessageType.PROBE_NACK, TrafficClass.GPU, 1,
                         block=0x99))
        assert engine.is_probing(0x99)
        h.deliver(Packet(13, 15, MessageType.PROBE_NACK, TrafficClass.GPU, 1,
                         block=0x99))
        assert not engine.is_probing(0x99)
        h.run(50, start=5)
        fallback = [p for p in h.mem_seen if p.mtype is MessageType.READ_REQ
                    and p.block == 0x99]
        assert len(fallback) == 1


class TestFlush:
    def test_flush_empties_l1(self):
        h = Harness()
        h.core.l1.fill(1)
        h.core.l1.fill(2)
        assert h.core.flush_l1() == 2
        assert not h.core.l1.contains(1)
        assert h.core.stats.flushes == 1

    def test_stall_until_pauses_issue(self):
        h = Harness()
        h.core.stall_until = 100
        h.run(50)
        assert h.core.stats.mem_ops == 0
        h.run(100, start=100)
        assert h.core.stats.mem_ops > 0


# ---------------------------------------------------------------------------
# endpoint scheduling: sleep, settle, wake (DESIGN.md, "Endpoint scheduling
# contract")
# ---------------------------------------------------------------------------

START = 100  # cycle of the first step in these tests


def stalled_harness(stalled_warps, timed=(), write_warps=()):
    """A core whose MSHR file (2 entries) is full of other lines, with
    ``stalled_warps`` parked in the FIFO on read misses it cannot allocate
    (``write_warps`` among them on writes over the cap) and ``timed``
    ``(ready, warp)`` entries in the heap."""
    cfg = small_config()
    cfg.gpu_l1.mshrs = 2
    cfg.gpu_core.warps = 16
    h = Harness(cfg)
    core = h.core
    core.mshrs.allocate(0xA0, ("local", 14))
    core.mshrs.allocate(0xA1, ("local", 15))
    core.outstanding_writes = _WRITE_CAP
    core._ready = list(timed)
    heapq.heapify(core._ready)
    # keys as left by one failed attempt per cycle, oldest first
    core._stalled = deque(
        (START - len(stalled_warps) + i + 1, w)
        for i, w in enumerate(stalled_warps)
    )
    for w in stalled_warps:
        core._pending_access[w] = (0x7000 + w, w in write_warps)
    return h


def core_state(core, cycle):
    core.settle(cycle)
    return {
        "stalled": list(core._stalled),
        "ready": sorted(core._ready),
        "pending": list(core._pending_access),
        "issue_stalls": core.stats.issue_stalls,
        "mem_ops": core.stats.mem_ops,
        "l1.misses": core.l1.misses,
        "l1.hits": core.l1.hits,
        "mshrs": sorted(core.mshrs.outstanding_blocks()),
    }


def run_pair(make, cycles):
    """Step two identical cores ``cycles`` times, one woken before every
    step; returns (always-awake core, sleeping core)."""
    ref, opt = make().core, make().core
    for cycle in range(START, START + cycles):
        ref.wake()
        ref.step(cycle)
        opt.step(cycle)
    return ref, opt


class TestSleepAndSettle:
    @pytest.mark.parametrize("skipped", [0, 1, 2, 4, 5, 6, 9, 10, 11, 57, 1000])
    @pytest.mark.parametrize("writes", [(), (5,), (1, 7)])
    def test_settle_equals_real_failed_steps(self, skipped, writes):
        """k = 5 stalled warps, n skipped cycles (n < k, n == k, n >> k):
        the replayed retries leave what n real failed steps leave."""
        warps = [3, 1, 7, 5, 2]
        ref, opt = run_pair(
            lambda: stalled_harness(warps, write_warps=writes), 1 + skipped
        )
        end = START + 1 + skipped
        # no remote waiter is parked, so the watchdog sweep never wakes it
        assert ref.steps == 1 + skipped and opt.steps == 1
        assert opt.wake_at > end
        assert core_state(opt, end) == core_state(ref, end)
        assert opt.stats.issue_stalls == 1 + skipped
        reads = [w for w in warps if w not in writes]
        assert (opt.l1.misses > 0) == bool(reads)

    def test_settle_is_idempotent_and_leaves_the_core_asleep(self):
        _ref, opt = run_pair(lambda: stalled_harness([4, 2, 9]), 8)
        first = core_state(opt, START + 8)
        wake_at = opt.wake_at
        assert core_state(opt, START + 8) == first
        assert opt.wake_at == wake_at > START + 8

    def test_step_on_a_sleeping_core_is_a_noop(self):
        """The benchmark's traced loop calls ``core.step`` on every core
        itself; a sleeping core must ignore it and stay asleep."""
        opt = stalled_harness([4, 2, 9]).core
        opt.step(START)
        wake_at, before = opt.wake_at, core_state(opt, START + 1)
        assert wake_at > START + 1
        opt.step(START + 1)
        opt.step(START + 2)
        assert opt.steps == 1 and opt.wake_at == wake_at
        # nothing but the owed retries, which settle counts either way
        after = core_state(opt, START + 3)
        assert after["issue_stalls"] == before["issue_stalls"] + 2
        assert after["pending"] == before["pending"]

    @pytest.mark.parametrize("timed_warp", [0, 12])
    @pytest.mark.parametrize("due", range(START - 1, START + 10))
    def test_untried_warp_gets_its_turn_on_time(self, timed_warp, due):
        """A timed warp ties a stalled one on ready cycle at some ``due``;
        the warp id (lower / higher than every stalled warp) breaks the
        tie.  The sleeping core must wake exactly for the timed warp's
        attempt: same trace draws, same queues, every cycle after."""
        def make():
            return stalled_harness([3, 1, 7, 5], timed=[(due, timed_warp)])

        for cycles in (4, 9, 14, 20):
            ref, opt = run_pair(make, cycles)
            end = START + cycles
            assert core_state(opt, end) == core_state(ref, end), cycles
        assert opt.steps < ref.steps

    @pytest.mark.parametrize("lifted", ["l1", "mshr", "write"])
    def test_stalled_warp_that_would_no_longer_fail_ends_the_sleep(self, lifted):
        """Only the retries ahead of it are slept through: its line is
        cached by now / outstanding by now / the write cap has room."""

        def make():
            h = stalled_harness([3, 1, 7, 5], write_warps=(7,))
            if lifted == "l1":
                h.core.l1.fill(0x7000 + 5)
            elif lifted == "mshr":
                h.core._pending_access[5] = (0xA1, False)
            else:
                h.core.outstanding_writes = _WRITE_CAP - 1
            return h

        ref, opt = run_pair(make, 12)
        assert core_state(opt, START + 12) == core_state(ref, START + 12)
        assert opt.stats.mem_ops == 1 and 1 < opt.steps < ref.steps

    def test_fill_wakes_and_settles_before_the_next_issue(self):
        def make():
            h = stalled_harness([3, 1, 7, 5, 2])
            h.core._pending_access[7] = (0xA0, False)  # the line in flight
            return h

        ref_h, opt_h = make(), make()
        for cycle in range(START, START + 30):
            for h in (ref_h, opt_h):
                if cycle == START + 13:  # lands between two skipped steps
                    h.deliver(
                        Packet(4, 15, MessageType.READ_REPLY, TrafficClass.GPU,
                               9, block=0xA0, created=cycle - 20),
                        cycle - 1,
                    )
                if h is ref_h:
                    h.core.wake()
                h.core.step(cycle)
        end = START + 30
        assert core_state(opt_h.core, end) == core_state(ref_h.core, end)
        assert opt_h.core.stats.mem_ops > 0
        assert opt_h.core.steps < ref_h.core.steps

    def test_stall_settles_against_the_old_stall_until(self):
        """``stall`` on a sleeping core: retries skipped so far are still
        owed, none after (both writers go through it)."""
        ref, opt = run_pair(lambda: stalled_harness([4, 2, 9]), 6)
        for core in (ref, opt):
            core.stall(10 ** 9)
        for cycle in range(START + 6, START + 12):
            ref.wake()
            ref.step(cycle)
            opt.step(cycle)
        assert ref.stats.issue_stalls == 6
        assert core_state(opt, START + 12) == core_state(ref, START + 12)

    def test_nic_refusal_is_not_slept_on(self):
        """A full NIC queue drains without telling the core: a warp
        stalled on it is retried every cycle."""
        cfg = small_config()
        cfg.noc.node_injection_queue_packets = 1
        h = Harness(cfg)
        for cycle in range(40):  # fabric never stepped: the queue stays full
            h.core.step(cycle)
        assert h.core.nic.queued(NetKind.REQUEST) == 1
        assert h.core.steps == 40 and h.core.wake_at == 0

    def test_shared_l1_and_probing_cores_never_sleep(self):
        h = Harness(probing=True)
        assert not h.core._may_sleep
        cfg = small_config()
        port = SharedL1Port(SharedL1Cluster(cfg.gpu_l1), 0)
        h = Harness(cfg)
        shared = GpuCore(15, 0, cfg, port, h.core.trace, h.fabric.nic(15),
                         AddressMap((4,)))
        assert not shared._may_sleep
        for cycle in range(60):
            shared.step(cycle)
        assert shared.steps == 60


class TestMissObserver:
    def test_fires_once_per_primary_miss_not_per_retry(self):
        """Fig. 2's hook: a primary miss refused by a full NIC queue is
        retried every cycle but observed once, when it is allocated."""
        cfg = small_config()
        cfg.noc.node_injection_queue_packets = 1
        h = Harness(cfg)
        seen = []
        h.core.miss_observer = lambda core, block: seen.append(block)
        for cycle in range(50):  # fabric never stepped: one request fits
            h.core.step(cycle)
        assert h.core.stats.issue_stalls > 10
        assert len(seen) == len(h.core.mshrs) == 1
        h.run(400, start=50)
        reads = [p for p in h.mem_seen if p.mtype is MessageType.READ_REQ]
        assert len(seen) == len(reads)
