"""Public-API stability: repro.api surface, result schema, CLI flags."""

from __future__ import annotations

import dataclasses
import inspect

import pytest
from conftest import small_config

import repro
import repro.api as api
from repro.sim.metrics import SimulationResult

#: the frozen public surface — editing this list IS the API review.
#: run_sweep/JobSpec added with the warm-pool runner so
#: campaign callers need not import repro.sweep.
#: explore/SearchSpace/ParetoFrontier removed with the design-space
#: exploration subsystem (no spec, cache entry or manifest named them).
#: predict removed with the analytical surrogate (likewise named by no
#: spec, cache entry or manifest).
#: available_backends/BackendError added with the backend-selection
#: layer (repro.sim.engines) behind simulate(backend=...).
EXPECTED_API = [
    "BackendError",
    "FaultPlan",
    "JobSpec",
    "SimulationResult",
    "available_backends",
    "build_system",
    "chaos_plan",
    "run_simulation",
    "run_sweep",
    "simulate",
]

#: SimulationResult's field names; a rename is a breaking change
#: (DESIGN.md, API-stability rules).
EXPECTED_RESULT_FIELDS = {
    "cycles", "counters", "n_gpu", "n_cpu", "n_mem",
    "gpu_ipc", "cpu_ipc", "cpu_latency_avg",
    "cpu_latency_p50", "cpu_latency_p95", "cpu_latency_p99",
    "gpu_latency_p50", "gpu_latency_p95", "gpu_latency_p99",
    "gpu_data_rate", "mem_blocking_rate", "mem_reply_link_utilization",
    "l1_miss_rate", "remote_hit_fraction", "delegated_fraction",
    "noc_request_packets",
    "fault_retransmits", "fault_lost",
    "fault_recovery_p50", "fault_recovery_p99",
    "stall_breakdown", "telemetry_metrics",
}


class TestApiSurface:
    def test_all_snapshot(self):
        assert api.__all__ == EXPECTED_API
        for name in EXPECTED_API:
            assert getattr(api, name) is not None

    def test_the_surrogate_left_the_package(self):
        assert "predict" not in repro.__all__
        with pytest.raises(AttributeError):
            repro.predict

    def test_package_level_simulate(self):
        assert "simulate" in repro.__all__
        res = repro.simulate(small_config(), "BP", cycles=300, warmup=150)
        assert isinstance(res, SimulationResult)

    def test_simulate_is_keyword_only_after_workload(self):
        sig = inspect.signature(api.simulate)
        params = list(sig.parameters.values())
        assert [p.name for p in params[:2]] == ["cfg", "workload"]
        assert all(
            p.kind is inspect.Parameter.KEYWORD_ONLY for p in params[2:]
        )
        with pytest.raises(TypeError):
            api.simulate(small_config(), "BP", "canneal")  # noqa: the point

    def test_simulate_smoke(self):
        res = api.simulate(
            small_config(), "BP", cpu="canneal", cycles=300, warmup=150
        )
        assert res.gpu_ipc > 0
        assert res.cpu_latency_avg > 0

    def test_run_sweep_via_api(self):
        spec = api.JobSpec.make(
            small_config(), "BP", "canneal", cycles=200, warmup=120
        )
        out = api.run_sweep([spec], jobs=1, cache=None)
        assert isinstance(out[spec.key()], SimulationResult)

    def test_simulate_accepts_fault_plan(self):
        plan = api.chaos_plan(small_config(), 0.1, seed=1,
                              warmup=150, cycles=400)
        res = api.simulate(small_config(), "BP", cpu="canneal",
                           cycles=400, warmup=150, faults=plan)
        assert res.counters.get("fault.drops", 0) > 0


class TestBackendSelection:
    def test_available_backends(self):
        assert api.available_backends() == ("object", "vector")

    def test_simulate_on_vector_backend(self):
        res = api.simulate(small_config(), "BP", cpu="canneal",
                           cycles=300, warmup=150, backend="vector")
        assert res.gpu_ipc > 0
        assert res.cpu_latency_avg > 0

    def test_unknown_backend_one_line_error(self):
        with pytest.raises(api.BackendError) as exc:
            api.simulate(small_config(), "BP", cycles=10, backend="turbo")
        msg = str(exc.value)
        assert "turbo" in msg and "object" in msg and "vector" in msg
        assert "\n" not in msg

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "vector")
        system = api.build_system(small_config(), "BP")
        assert system.backend == "vector"
        assert type(system.fabric).__name__ == "VectorFabric"
        monkeypatch.delenv("REPRO_BACKEND")
        assert api.build_system(small_config(), "BP").backend == "object"

    def test_vector_rejects_telemetry_config(self):
        cfg = small_config()
        cfg.telemetry.enabled = True
        with pytest.raises(api.BackendError) as exc:
            api.simulate(cfg, "BP", cycles=10, backend="vector")
        assert "telemetry" in str(exc.value)
        assert "\n" not in str(exc.value)


class TestResultSchema:
    def test_field_snapshot(self):
        names = {f.name for f in dataclasses.fields(SimulationResult)}
        assert names == EXPECTED_RESULT_FIELDS

    def test_round_trip(self):
        res = api.simulate(small_config(), "BP", cycles=300, warmup=150)
        clone = SimulationResult.from_dict(res.to_dict())
        assert clone.to_dict() == res.to_dict()

    def test_unknown_keys_ignored(self):
        data = SimulationResult(cycles=5).to_dict()
        data["metric_from_the_future"] = 1.0
        assert SimulationResult.from_dict(data).cycles == 5


class TestCliConventions:
    def test_shared_flags_spelled_identically(self):
        """Every command takes the shared flags from the one table."""
        import argparse

        from repro.cli import add_options

        p = argparse.ArgumentParser()
        add_options(p, "cycles", "warmup", "jobs", "out", "seed",
                    cycles=dict(default=10), warmup=dict(default=5),
                    out=dict(default="x.json"))
        args = p.parse_args([])
        assert (args.cycles, args.warmup, args.out) == (10, 5, "x.json")
        assert args.jobs is None and args.seed is None
