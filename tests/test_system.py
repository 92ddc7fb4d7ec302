"""Integration tests: the fully assembled system end to end."""

from repro.config import L1Organization, delegated_replies_config
from repro.sim.metrics import collect_counters, diff_counters
from repro.sim.simulator import build_system, run_simulation

from conftest import small_config, small_dr_config


def run_small(cfg, gpu="HS", cpu="bodytrack", cycles=600, warmup=300):
    return run_simulation(cfg, gpu, cpu, cycles=cycles, warmup=warmup)


class TestAssembly:
    def test_core_counts_match_config(self):
        system = build_system(small_config(), "HS", "vips")
        assert len(system.gpu_cores) == 10
        assert len(system.cpu_cores) == 4
        assert len(system.memory_nodes) == 2

    def test_no_cpu_workload_means_no_cpu_cores(self):
        system = build_system(small_config(), "HS")
        assert system.cpu_cores == []

    def test_sim_scale_shrinks_caches_once(self):
        cfg = small_config()
        assert cfg.sim_scale == 0.125
        system = build_system(cfg, "HS")
        scaled = system.cfg.gpu_l1.size_bytes
        assert scaled == int(48 * 1024 * 0.125)
        assert system.cfg.sim_scale == 1.0
        # caller's config untouched
        assert cfg.gpu_l1.size_bytes == 48 * 1024

    def test_mechanism_wiring(self):
        cfg = small_dr_config()
        dr = build_system(cfg, "HS")
        assert all(
            m.nic.delegation == cfg.delegation for m in dr.memory_nodes
        )
        base = build_system(small_config(), "HS")
        assert all(m.nic.delegation is None for m in base.memory_nodes)

    def test_shared_l1_clusters(self):
        cfg = small_config()
        cfg.l1_org = L1Organization.DC_L1
        system = build_system(cfg, "HS")
        assert len(system._clusters) == 2  # 10 cores / 8 per cluster


class TestEndToEnd:
    def test_simulation_makes_progress(self):
        res = run_small(small_config())
        assert res.gpu_ipc > 0
        assert res.cpu_ipc > 0
        assert res.counters["mem.requests"] > 0

    def test_determinism(self):
        r1 = run_small(small_config())
        r2 = run_small(small_config())
        assert r1.gpu_ipc == r2.gpu_ipc
        assert r1.counters == r2.counters

    def test_seed_changes_results(self):
        cfg2 = small_config()
        cfg2.seed = 99
        r1 = run_small(small_config())
        r2 = run_small(cfg2)
        assert r1.gpu_ipc != r2.gpu_ipc

    def test_transaction_conservation_after_drain(self):
        """Every issued request is eventually answered exactly once."""
        system = build_system(small_config(), "HS", "vips")
        system.run(500)
        # stop issuing and let everything drain
        for core in system.gpu_cores:
            core.stall(10 ** 9)
        for core in system.cpu_cores:
            core._blocked_on = None
            core._countdown = 10 ** 9
            core._pending = None
        for _ in range(6000):
            system.step()
        for core in system.gpu_cores:
            assert len(core.mshrs) == 0, "GPU MSHRs left outstanding"
            assert core.outstanding_writes == 0
            assert len(core.frq) == 0
        for core in system.cpu_cores:
            assert len(core.mshrs) == 0, "CPU MSHRs left outstanding"
        assert system.fabric.in_flight_flits() == 0

    def test_dr_drain_conservation(self):
        """Same conservation property with delegation active."""
        system = build_system(small_dr_config(), "HS", "vips")
        system.run(800)
        for core in system.gpu_cores:
            core.stall(10 ** 9)
        for core in system.cpu_cores:
            core._countdown = 10 ** 9
            core._pending = None
        for _ in range(8000):
            system.step()
        for core in system.gpu_cores:
            assert len(core.mshrs) == 0
            assert len(core.frq) == 0
            assert not core._c2c_out and not core._dnf_out
        assert system.fabric.in_flight_flits() == 0

    def test_kernel_flush_interval(self):
        system = build_system(small_config(), "HS", None,
                              kernel_flush_interval=200)
        system.run(650)
        assert system.kernel_flushes == 3
        assert system.coherence.stats.flushes == 3


class TestMechanismsEndToEnd:
    def test_dr_helps_on_high_locality_workload(self):
        base = run_small(small_config(), cycles=1200, warmup=600)
        dr = run_small(small_dr_config(), cycles=1200, warmup=600)
        assert dr.gpu_ipc > base.gpu_ipc
        assert dr.counters["mem.delegations"] > 0

    def test_dr_produces_c2c_replies(self):
        dr = run_small(small_dr_config(), cycles=1200, warmup=600)
        assert dr.counters["gpu.c2c_replies"] > 0

    def test_memory_nodes_block_under_load(self):
        base = run_small(small_config(), cycles=1000, warmup=500)
        assert base.mem_blocking_rate > 0.3


class TestMetricsPlumbing:
    def test_counter_diff_isolates_window(self):
        system = build_system(small_config(), "HS", "vips")
        system.run(300)
        snap = collect_counters(system)
        system.run(300)
        window = diff_counters(collect_counters(system), snap)
        assert window["cycle"] == 300
        assert window["gpu.insts"] >= 0

    def test_derive_result_fields(self):
        res = run_small(small_config())
        assert res.cycles == 600
        assert 0 <= res.mem_blocking_rate <= 1
        assert 0 <= res.mem_reply_link_utilization <= 1.01
        breakdown = res.miss_breakdown()
        assert abs(sum(breakdown.values()) - 1.0) < 1e-6

    def test_scheduler_stats_account_for_every_core_step(self):
        """Self-observability of the endpoint scheduler: steps run plus
        steps slept through is every core-step and every memory-node step
        of the run, and none is a simulated counter (``stats_digest``
        must not see them)."""
        system = build_system(small_config(), "HS", "vips")
        system.run(400)
        stats = system.scheduler_stats()
        assert set(stats) == {"gpu_core_steps", "gpu_core_steps_skipped",
                              "mem_node_steps", "mem_node_steps_skipped"}
        assert stats["gpu_core_steps"] + stats["gpu_core_steps_skipped"] == \
            400 * len(system.gpu_cores)
        assert stats["mem_node_steps"] + stats["mem_node_steps_skipped"] == \
            400 * len(system.memory_nodes)
        assert stats["gpu_core_steps_skipped"] > stats["gpu_core_steps"] > 0
        assert stats["mem_node_steps_skipped"] > 0 < stats["mem_node_steps"]
        assert not set(stats) & set(collect_counters(system))

    def test_vector_memory_lanes_scan_only_when_there_is_something_to_delegate(self):
        """Quiet memory lanes cost no Python: a delegation scan runs at
        most once per delegatable reply a node sent (plus one per node),
        not once per node per cycle."""
        system = build_system(
            delegated_replies_config(), "HS", "canneal", backend="vector"
        )
        system.run(500)
        scans = system.scheduler_stats()["mem_nic_delegation_scans"]
        mems = system.memory_nodes
        delegatable = sum(m.stats.delegatable_replies for m in mems)
        assert sum(m.nic.delegations for m in mems) >= 10
        assert 0 < scans <= delegatable + len(mems) < 500 * len(mems) / 10
