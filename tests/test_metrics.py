"""Tests for counter collection, window diffing and derived metrics."""

import pytest

from repro.sim.metrics import (
    SimulationResult,
    collect_counters,
    derive_result,
    diff_counters,
)
from repro.sim.simulator import build_system

import sys
sys.path.insert(0, "tests")
from conftest import small_config, small_dr_config


class TestCollect:
    def test_counters_are_flat_numbers(self):
        system = build_system(small_config(), "HS", "vips")
        system.run(200)
        counters = collect_counters(system)
        assert all(isinstance(v, (int, float)) for v in counters.values())
        assert counters["cycle"] == 200

    def test_counters_monotonic(self):
        system = build_system(small_config(), "HS", "vips")
        system.run(200)
        a = collect_counters(system)
        system.run(200)
        b = collect_counters(system)
        for key in ("cycle", "gpu.insts", "mem.requests", "noc.req_packets"):
            assert b[key] >= a[key]

    def test_rp_counters_present_only_with_probing(self):
        system = build_system(small_config(), "HS")
        counters = collect_counters(system)
        assert counters["rp.probes_sent"] == 0

    def test_frq_merge_counters_exposed(self):
        system = build_system(small_dr_config(), "HS")
        system.run(300)
        counters = collect_counters(system)
        assert "gpu.frq_merge_opportunities" in counters
        assert "gpu.frq_enqueued" in counters


class TestDiff:
    def test_diff_subtracts_baseline(self):
        end = {"cycle": 500.0, "x": 10.0}
        start = {"cycle": 200.0, "x": 4.0}
        assert diff_counters(end, start) == {"cycle": 300.0, "x": 6.0}

    def test_diff_none_baseline_copies(self):
        end = {"cycle": 5.0}
        out = diff_counters(end, None)
        assert out == end and out is not end

    def test_diff_handles_new_keys(self):
        assert diff_counters({"a": 3.0}, {})["a"] == 3.0


class TestDerive:
    def test_zero_window_is_safe(self):
        system = build_system(small_config(), "HS", "vips")
        window = diff_counters(collect_counters(system), collect_counters(system))
        window["cycle"] = 0
        res = derive_result(system, window)
        assert res.gpu_ipc == 0.0
        assert res.cpu_latency_avg == 0.0
        assert res.remote_hit_fraction == 0.0

    def test_breakdown_partition(self):
        res = SimulationResult(
            cycles=100,
            counters={
                "gpu.llc_replies": 60,
                "gpu.c2c_replies": 40,
                "gpu.frq_remote_hits": 30,
                "gpu.frq_delayed_hits": 10,
                "gpu.frq_remote_misses": 5,
            },
        )
        bd = res.miss_breakdown()
        assert bd["remote_hit"] == pytest.approx(0.40)
        assert bd["remote_miss"] == pytest.approx(0.05)
        assert bd["llc"] == pytest.approx(0.55)

    def test_llc_direct_fraction_complements_delegated(self):
        res = SimulationResult(cycles=10)
        res.delegated_fraction = 0.3
        assert res.llc_direct_fraction == pytest.approx(0.7)

    def test_derived_fields_from_live_system(self):
        system = build_system(small_dr_config(), "HS", "vips")
        system.run(400)
        window = collect_counters(system)
        res = derive_result(system, window)
        assert res.n_gpu == 10 and res.n_cpu == 4 and res.n_mem == 2
        assert res.gpu_ipc > 0
        assert 0 <= res.delegated_fraction <= 1.0

    def test_latency_percentiles_derived(self):
        system = build_system(small_config(), "HS", "vips")
        system.run(600)
        window = collect_counters(system)
        res = derive_result(system, window)
        if window.get("cpu.replies", 0):
            assert res.cpu_latency_p50 > 0
            assert res.cpu_latency_p50 <= res.cpu_latency_p95 <= res.cpu_latency_p99
        assert res.gpu_latency_p50 > 0
        assert res.gpu_latency_p50 <= res.gpu_latency_p95 <= res.gpu_latency_p99


class TestSerialization:
    def test_round_trip(self):
        res = SimulationResult(cycles=100, counters={"cpu.replies": 5.0})
        res.cpu_latency_p99 = 42.5
        clone = SimulationResult.from_dict(res.to_dict())
        assert clone == res

    def test_from_dict_ignores_unknown_keys(self):
        # forward compatibility: cached results written by newer code
        # (with extra fields) must still load
        res = SimulationResult(cycles=100)
        data = res.to_dict()
        data["metric_from_the_future"] = 1.25
        clone = SimulationResult.from_dict(data)
        assert clone.cycles == 100
        assert not hasattr(clone, "metric_from_the_future")

    def test_from_dict_defaults_missing_fields(self):
        # backward compatibility: pre-telemetry caches lack the
        # percentile fields
        res = SimulationResult(cycles=100)
        data = res.to_dict()
        del data["cpu_latency_p99"]
        clone = SimulationResult.from_dict(data)
        assert clone.cpu_latency_p99 == 0.0
