"""The stable public API of the ``repro`` package.

Everything an external caller needs lives behind this one module:

.. code-block:: python

    from repro.api import simulate
    from repro.config import delegated_replies_config

    result = simulate(delegated_replies_config(), "HS",
                      cpu="canneal", cycles=20_000)
    print(result.gpu_ipc, result.cpu_latency_avg)

:func:`simulate` is the single-run entry point; everything after the
config and workload is keyword-only so call sites stay readable and
new options never break positional callers.  For batches,
:func:`run_sweep` plus :class:`JobSpec` is the campaign entry point —
warm worker pools (``jobs``), on-disk result caching and retries,
see :mod:`repro.sweep`.  The lower-level
:func:`run_simulation` / :func:`build_system` pair is re-exported for
callers that need to drive a :class:`HeterogeneousSystem` cycle by
cycle (telemetry tooling, the fault-injection harness).

Names listed in ``__all__`` are covered by the API-snapshot test
(``tests/test_api.py``); removing or renaming one is a breaking change
and takes a deprecation cycle (DESIGN.md, API-stability rules): the old
spelling keeps working beside the new one until a ``CODE_VERSION`` bump
has retired every cache entry that could still carry it, then it goes.
A name no job spec, cache entry or sweep manifest carries may instead
go outright with its subsystem.
"""

from __future__ import annotations

from typing import Optional

from repro.config.system import SystemConfig
from repro.faults.plan import FaultPlan, chaos_plan
from repro.sim.engines import BackendError, available_backends
from repro.sim.metrics import SimulationResult
from repro.sim.simulator import (
    CpuSpec,
    GpuSpec,
    build_system,
    run_simulation,
)
from repro.sweep import JobSpec, run_sweep

__all__ = [
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


def simulate(
    cfg: SystemConfig,
    workload: GpuSpec,
    *,
    cpu: Optional[CpuSpec] = None,
    cycles: int = 20_000,
    warmup: int = 2_000,
    kernel_flush_interval: int = 0,
    faults: Optional[FaultPlan] = None,
    backend: Optional[str] = None,
) -> SimulationResult:
    """Simulate one workload mix and return its steady-state metrics.

    Args:
        cfg: complete system configuration (e.g.
            :func:`repro.config.delegated_replies_config`).
        workload: GPU benchmark name (Table II) or profile.
        cpu: optional CPU benchmark name or profile; all 16 CPU cores run
            it, matching the paper's workload construction.
        cycles: measured-window length in cycles.
        warmup: cycles simulated before measurement starts.
        kernel_flush_interval: if nonzero, flush GPU L1s and LLC core
            pointers every N cycles (software-coherence kernel
            boundaries).
        faults: optional :class:`~repro.faults.plan.FaultPlan`; installs
            deterministic fault injection plus timeout/retransmit
            recovery (see :mod:`repro.faults`).  ``None`` (the default)
            leaves the simulation bit-identical to a build without the
            fault layer.
        backend: kernel to run on: ``"object"`` (the per-object
            reference kernel, runs everything) or ``"vector"`` (the
            struct-of-arrays batch kernel; no telemetry, adaptive
            routing, or non-loss fault plans).  The two return the same
            numbers.  ``None`` (the default) honours the
            ``REPRO_BACKEND`` environment variable, else takes the
            faster kernel that can do the run — ``vector`` on a mesh of
            more than 225 nodes (:func:`repro.sim.engines.
            select_backend`).  Unknown or unusable choices raise
            :class:`BackendError` with a one-line message; see
            :func:`available_backends`.
    """
    return run_simulation(
        cfg,
        workload,
        cpu,
        cycles=cycles,
        warmup=warmup,
        kernel_flush_interval=kernel_flush_interval,
        faults=faults,
        backend=backend,
    )
