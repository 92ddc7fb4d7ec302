"""Failure-injection tests: pathological inputs must degrade, not break.

DESIGN.md calls these out: FRQ overflow storms, all-to-one pointer maps,
stale pointers and zero-locality workloads.  Delegated Replies tracks
sharers *imprecisely* — wrong pointers may cost performance but the
system must stay correct (every request still answered, no deadlock).
"""

import dataclasses

import pytest

from repro.noc import MessageType, Packet, TrafficClass
from repro.sim.simulator import build_system, run_simulation
from repro.workloads.gpu import gpu_benchmark

from conftest import small_config, small_dr_config


def drain(system, cycles=8000):
    for core in system.gpu_cores:
        core.stall(10 ** 9)
    for core in system.cpu_cores:
        core._countdown = 10 ** 9
        core._pending = None
    for _ in range(cycles):
        system.step()


class TestFrqOverflowStorm:
    def test_tiny_frq_still_conserves_transactions(self):
        cfg = small_dr_config()
        cfg.gpu_l1.frq_entries = 1  # storm: nearly every delegation queues
        system = build_system(cfg, "HS", "vips")
        system.run(800)
        drain(system)
        for core in system.gpu_cores:
            assert len(core.mshrs) == 0
            assert len(core.frq) == 0
        assert system.fabric.in_flight_flits() == 0


class TestAllToOnePointerMap:
    def test_hot_core_poisoned_pointers_stay_correct(self):
        """Force every LLC pointer at one core: that core gets the whole
        delegation storm, FRQ backpressure throttles it, nothing breaks."""
        cfg = small_dr_config()
        system = build_system(cfg, "HS", None)
        hot = system.gpu_cores[0].node_id
        system.run(400)
        for mem in system.memory_nodes:
            for block in list(mem.llc.cache.blocks()):
                mem.llc.cache.set_meta(block, hot)
        system.run(400)
        drain(system)
        for core in system.gpu_cores:
            assert len(core.mshrs) == 0
        assert system.fabric.in_flight_flits() == 0


class TestStalePointers:
    def test_disabled_write_invalidation_still_terminates(self):
        cfg = small_dr_config()
        cfg.llc.pointer_invalidate_on_write = False
        system = build_system(cfg, "BP", "vips")  # write-heavy
        system.run(800)
        drain(system)
        for core in system.gpu_cores:
            assert len(core.mshrs) == 0
        assert system.fabric.in_flight_flits() == 0


class TestZeroLocalityWorkload:
    def test_private_only_workload_never_delegates_usefully(self):
        profile = dataclasses.replace(
            gpu_benchmark("HS"), p_shared=0.0, p_reuse=0.0
        )
        cfg = small_dr_config()
        res = run_simulation(cfg, profile, None, cycles=600, warmup=400)
        # private blocks are only ever touched by one core: the pointer
        # always equals the requester, so (almost) nothing is delegatable
        assert res.delegated_fraction < 0.05

    def test_zero_locality_baseline_equivalence(self):
        profile = dataclasses.replace(
            gpu_benchmark("HS"), p_shared=0.0, p_reuse=0.0
        )
        base = run_simulation(small_config(), profile, None,
                              cycles=600, warmup=400)
        dr = run_simulation(small_dr_config(), profile, None,
                            cycles=600, warmup=400)
        assert dr.gpu_ipc == pytest.approx(base.gpu_ipc, rel=0.10)


class TestHostileDelegations:
    def test_delegation_to_core_without_data_roundtrips_via_dnf(self):
        """A delegated request for a block nobody caches must still end in
        exactly one data reply to the requester (via DNF)."""
        cfg = small_dr_config()
        system = build_system(cfg, "HS", None)
        requester = system.gpu_cores[1].node_id
        victim = system.gpu_cores[0]
        for core in system.gpu_cores:
            core.stall(10 ** 9)  # isolate the injected transaction
        # the requester believes it has an outstanding miss
        victim_block = 0x123456
        system.gpu_cores[1].mshrs.allocate(victim_block, ("local", 0))
        fake = Packet(
            system.memory_nodes[0].node_id,
            victim.node_id,
            MessageType.DELEGATED_REQ,
            TrafficClass.GPU,
            1,
            block=victim_block,
            requester=requester,
        )
        victim.on_packet(fake, 0)
        for _ in range(4000):
            system.step()
        assert not system.gpu_cores[1].mshrs.has(victim_block)
        assert system.gpu_cores[1].stats.llc_replies == 1
        assert victim.stats.frq_remote_misses == 1
