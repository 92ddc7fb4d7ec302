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
see :mod:`repro.sweep`.  :func:`predict` is
the millisecond analytical counterpart of :func:`simulate`: same
(config, workload, co-runner) signature, a
:class:`~repro.model.Prediction` instead of a
:class:`SimulationResult` — use it for what-if scans and to pre-screen
sweeps (``repro sweep run --screen surrogate``).  The lower-level
:func:`run_simulation` / :func:`build_system` pair is re-exported for
callers that need to drive a :class:`HeterogeneousSystem` cycle by
cycle (telemetry tooling, the fault-injection harness).

Names listed in ``__all__`` are covered by the API-snapshot test
(``tests/test_api.py``); removing or renaming one is a breaking change
and takes a deprecation cycle (DESIGN.md, API-stability rules): the old
spelling keeps working beside the new one until a ``CODE_VERSION`` bump
has retired every cache entry that could still carry it, then it goes.
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
    "predict",
    "run_simulation",
    "run_sweep",
    "simulate",
]


def predict(
    cfg: SystemConfig,
    workload: str,
    *,
    cpu: Optional[str] = None,
):
    """Analytical surrogate estimate of :func:`simulate`'s metrics.

    Runs the queueing-theoretic model in :mod:`repro.model` — per-link
    offered loads from the routing tables, M/G/1 priority waits, and a
    closed-loop saturation fixed point — and returns a
    :class:`~repro.model.Prediction` in a few milliseconds.  Field
    names mirror :class:`SimulationResult` where the two overlap
    (``cpu_latency_avg``, ``gpu_ipc``, ``mem_blocking_rate``, ...), and
    the prediction adds ``demand_rho``/``saturated``/``bottleneck`` for
    clogging assessment.  Validated accuracy against the simulator is
    tracked by ``python -m repro model validate``.
    """
    from repro.model.compose import predict as _model_predict

    return _model_predict(cfg, workload, cpu)


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
