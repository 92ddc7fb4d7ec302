"""Top-level simulation driver.

``run_simulation`` builds a :class:`HeterogeneousSystem` for one workload
mix, runs a warmup window (caches fill, the NoC reaches steady-state
congestion), snapshots all counters, runs the measured window, and derives
a :class:`SimulationResult` from the difference.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.config.system import SystemConfig
from repro.faults.plan import FaultPlan
from repro.sim.metrics import (
    SimulationResult,
    collect_counters,
    derive_result,
    diff_counters,
)
from repro.sim.system import HeterogeneousSystem
from repro.workloads.cpu import CpuBenchmarkProfile, cpu_benchmark
from repro.workloads.gpu import GpuBenchmarkProfile, gpu_benchmark

GpuSpec = Union[str, GpuBenchmarkProfile]
CpuSpec = Union[str, CpuBenchmarkProfile]


def _resolve_gpu(spec: GpuSpec) -> GpuBenchmarkProfile:
    return gpu_benchmark(spec) if isinstance(spec, str) else spec


def _resolve_cpu(spec: Optional[CpuSpec]) -> Optional[CpuBenchmarkProfile]:
    if spec is None:
        return None
    return cpu_benchmark(spec) if isinstance(spec, str) else spec


def build_system(
    cfg: SystemConfig,
    gpu: GpuSpec,
    cpu: Optional[CpuSpec] = None,
    kernel_flush_interval: int = 0,
    faults: Optional[FaultPlan] = None,
    backend: Optional[str] = None,
) -> HeterogeneousSystem:
    """Construct (but do not run) the system for a workload mix."""
    return HeterogeneousSystem(
        cfg,
        _resolve_gpu(gpu),
        _resolve_cpu(cpu),
        kernel_flush_interval=kernel_flush_interval,
        faults=faults,
        backend=backend,
    )


def run_simulation(
    cfg: SystemConfig,
    gpu: GpuSpec,
    cpu: Optional[CpuSpec] = None,
    cycles: int = 20_000,
    warmup: int = 2_000,
    kernel_flush_interval: int = 0,
    system: Optional[HeterogeneousSystem] = None,
    faults: Optional[FaultPlan] = None,
    backend: Optional[str] = None,
) -> SimulationResult:
    """Simulate one workload mix and return its steady-state metrics.

    Args:
        cfg: complete system configuration.
        gpu: GPU benchmark name (Table II) or profile.
        cpu: optional CPU benchmark name or profile (all 16 CPU cores run
            it, as in the paper's workload construction).
        cycles: measured-window length in cycles.
        warmup: cycles simulated before measurement starts.
        kernel_flush_interval: if nonzero, flush GPU L1s and LLC core
            pointers every N cycles (software-coherence kernel boundaries).
        system: reuse a pre-built system (advanced; ``cfg``/workload
            arguments are ignored for construction then).
        faults: optional :class:`~repro.faults.plan.FaultPlan` installing
            the fault-injection layer (see :mod:`repro.faults`).
        backend: kernel to run on (``"object"`` | ``"vector"``).  ``None``
            honours ``$REPRO_BACKEND``, else takes the faster kernel that
            can do the run (:func:`repro.sim.engines.select_backend`).
    """
    if system is None:
        system = build_system(
            cfg, gpu, cpu, kernel_flush_interval, faults, backend=backend
        )
    system.run(warmup)
    baseline = collect_counters(system)
    if system.telemetry is not None:
        # align the stall-attribution window with the measured window
        system.telemetry.mark_window_start(system.cycle)
    system.run(cycles)
    window = diff_counters(collect_counters(system), baseline)
    if system.telemetry is not None:
        # flush open clogging episodes, write histogram/summary records
        # and close the trace sink
        system.telemetry.finalize(system.cycle)
    return derive_result(system, window)
