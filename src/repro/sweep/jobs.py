"""Job enumeration: hashable, serialisable simulation job specs.

A :class:`JobSpec` is the complete, immutable description of one
simulation: the full :class:`~repro.config.system.SystemConfig` (carried
as canonical JSON so the spec itself is hashable), the GPU/CPU workload
pair and the warmup/measured window.  Its :meth:`~JobSpec.key` is a
content hash over everything that can influence the
:class:`~repro.sim.metrics.SimulationResult`, salted with a code-version
string so cache entries are invalidated when simulator semantics change.

The ``label`` field is bookkeeping only (e.g. the ``(gpu, cpu,
mechanism)`` triple the experiment modules key their sweeps by) and is
deliberately excluded from the hash: two specs describing the same
simulation share one cache entry regardless of how callers name them.

The rule that turns a design point into a job lives here too, beside the
spec it fills in: :func:`job` (the CPU is the caller's, else the GPU
benchmark's first Table II co-runner; a window is the caller's, else
``$REPRO_CYCLES`` / ``$REPRO_WARMUP``, else the built-in).  The figure
modules, the ``python -m repro`` job block, the validation grids, the
explore spaces and the chaos sweep all call it.  And one pair of methods
turns a spec back into a simulation: :meth:`JobSpec.build` and
:meth:`JobSpec.run` hand *every* field of the spec to the simulator, so
the sweep workers and the one-job commands cannot run different jobs
from one spec.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.config.system import (
    MECHANISMS,
    SystemConfig,
    canonical_config,
    config_from_dict,
    mechanism_config,
)
from repro.faults.plan import FaultPlan
from repro.sim.engines import select_backend
from repro.sim.metrics import SimulationResult
from repro.sim.simulator import build_system, run_simulation
from repro.sim.system import HeterogeneousSystem
from repro.workloads.gpu import GPU_BENCHMARK_NAMES, gpu_benchmark
from repro.workloads.mixes import TABLE_II

#: bump when a change to the simulator alters results for identical
#: configs — every on-disk cache entry becomes stale at once.
#: sweep-v2: results carry latency-histogram counters and percentile
#: fields (repro.telemetry).
#: sweep-v3: results carry stall-attribution breakdown fields
#: (repro.telemetry.blame).
#: sweep-v4: specs can carry a fault plan (repro.faults) and results
#: rename cpu_avg_latency -> cpu_latency_avg + gain fault_* fields.
#: sweep-v5: specs carry the simulation backend (repro.sim.engines) and
#: the object kernel's NIC drains in-flight worms in deterministic
#: packet-key order, shifting delivered-counter timings slightly.
#: sweep-v6: the object kernel steps in the decide-then-commit order
#: (DESIGN.md §6.1); object-backend results equal the vector backend's.
#: sweep-v7: the memory-node reply buffer admits on the config's
#: worst-case reply size, not a fixed 9 flits (non-16 B channels move).
CODE_VERSION = "sweep-v7"


def _canonical_json(data: Any) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


@dataclasses.dataclass(frozen=True)
class JobSpec:
    """One simulation job: config + workload + window.  Hashable."""

    config_json: str
    gpu: str
    cpu: Optional[str]
    cycles: int
    warmup: int
    kernel_flush_interval: int = 0
    #: display/bookkeeping label; NOT part of the cache key.
    label: Tuple[str, ...] = ()
    #: canonical JSON of the :class:`~repro.faults.plan.FaultPlan`, or
    #: None for a fault-free run.  Part of the cache key: a chaos run and
    #: a clean run of the same config are different results.
    faults: Optional[str] = None
    #: the kernel the job runs on, chosen by :meth:`make`
    #: (:func:`repro.sim.engines.select_backend`).  Part of the cache key
    #: although the kernels are pinned counter-identical, so a divergence
    #: in one cannot hide behind the other's cache.
    backend: str = "object"

    @classmethod
    def make(
        cls,
        config: Union[SystemConfig, Dict[str, Any]],
        gpu: str,
        cpu: Optional[str] = None,
        cycles: int = 3000,
        warmup: int = 2000,
        kernel_flush_interval: int = 0,
        label: Sequence[str] = (),
        faults: Any = None,
        backend: Optional[str] = None,
    ) -> "JobSpec":
        if isinstance(config, SystemConfig):
            cfg = config.validate()
        else:
            cfg = config_from_dict(config)
        if faults is not None and not isinstance(faults, str):
            if isinstance(faults, dict):
                faults = _canonical_json(faults)
            else:  # a FaultPlan
                faults = faults.canonical_json()
        spec = cls(
            config_json=_canonical_json(cfg.to_dict()),
            gpu=gpu,
            cpu=cpu,
            cycles=int(cycles),
            warmup=int(warmup),
            kernel_flush_interval=int(kernel_flush_interval),
            label=tuple(label),
            faults=faults,
        )
        # chosen from the config and the plan the worker will rebuild, so
        # a spec no kernel can run is refused here, not in a worker
        chosen = select_backend(
            backend, cfg.n_nodes, cfg.noc, cfg.telemetry.enabled,
            spec.fault_plan(),
        )
        return dataclasses.replace(spec, backend=chosen)

    # -- identity ---------------------------------------------------------

    def key(self) -> str:
        """Content hash of everything that determines the result.

        The config enters in its canonical form
        (:func:`repro.config.system.canonical_config`, the one
        ``SystemConfig.config_hash`` hashes): sections and fields that
        cannot change the result are left out, so inert twins share one
        cache entry and a traced spec never aliases its untraced twin.
        """
        fields = {
            "salt": CODE_VERSION,
            "config": canonical_config(json.loads(self.config_json)),
            "gpu": self.gpu,
            "cpu": self.cpu,
            "cycles": self.cycles,
            "warmup": self.warmup,
            "kernel_flush_interval": self.kernel_flush_interval,
            "faults": self.faults,
            "backend": self.backend,
        }
        payload = _canonical_json(fields)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def reseeded(self, seed: int) -> "JobSpec":
        """This job at another RNG seed: a different simulation and key."""
        config = config_from_dict(
            {**json.loads(self.config_json), "seed": seed}
        ).to_dict()
        return dataclasses.replace(self, config_json=_canonical_json(config))

    # -- materialisation --------------------------------------------------

    def system_config(self) -> SystemConfig:
        """Rebuild the full :class:`SystemConfig` this spec describes."""
        return config_from_dict(json.loads(self.config_json))

    def fault_plan(self) -> Optional[FaultPlan]:
        """Rebuild the :class:`~repro.faults.plan.FaultPlan`, or None."""
        if self.faults is None:
            return None
        return FaultPlan.from_dict(json.loads(self.faults))

    def build(self) -> HeterogeneousSystem:
        """The system this spec describes: its config and workload pair,
        on its kernel, under its fault plan and flush interval."""
        return build_system(
            self.system_config(),
            self.gpu,
            self.cpu,
            self.kernel_flush_interval,
            self.fault_plan(),
            backend=self.backend,
        )

    def run(
        self, system: Optional[HeterogeneousSystem] = None
    ) -> SimulationResult:
        """Simulate this job's window and return its result.

        ``system`` is one :meth:`build` returned, for a caller that
        needs it afterwards (``faults run`` drains it).
        """
        system = self.build() if system is None else system
        return run_simulation(
            system.cfg, self.gpu, self.cpu,
            cycles=self.cycles, warmup=self.warmup, system=system,
        )

    def describe(self) -> str:
        if self.label:
            return "/".join(self.label)
        mech = json.loads(self.config_json).get("mechanism", "?")
        return f"{self.gpu}/{self.cpu or '-'}/{mech}"

    # -- wire format (manifests, worker payloads) -------------------------

    def to_dict(self) -> Dict[str, Any]:
        d = dataclasses.asdict(self)
        d["label"] = list(self.label)
        return d

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobSpec":
        data = dict(data)
        data["label"] = tuple(data.get("label", ()))
        return cls(**data)


def dedupe(specs: Sequence[JobSpec]) -> List[JobSpec]:
    """Drop specs whose key duplicates an earlier one (order-preserving)."""
    seen = set()
    out: List[JobSpec] = []
    for spec in specs:
        k = spec.key()
        if k not in seen:
            seen.add(k)
            out.append(spec)
    return out


def _env_int(name: str, default: int, minimum: int) -> int:
    """``$name`` as an integer >= ``minimum``, ``default`` when unset."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
        if value < minimum:
            raise ValueError
    except ValueError:
        raise ValueError(
            f"${name} must be an integer >= {minimum}, got {raw!r}"
        ) from None
    return value


def default_cycles(builtin: int = 3000) -> int:
    """Measured-window length: ``REPRO_CYCLES`` (read now), else ``builtin``."""
    return _env_int("REPRO_CYCLES", builtin, minimum=1)


def default_warmup(builtin: int = 2000) -> int:
    """Warmup-window length: ``REPRO_WARMUP`` (read now), else ``builtin``."""
    return _env_int("REPRO_WARMUP", builtin, minimum=0)


def default_mixes(builtin: int = 2) -> int:
    """CPU co-runners per GPU benchmark in a figure's mechanism sweep:
    ``REPRO_MIXES`` (read now), else ``builtin``."""
    return _env_int("REPRO_MIXES", builtin, minimum=1)


def figure_benchmarks(builtin: int) -> List[str]:
    """A multi-configuration figure's GPU benchmarks: the first
    ``REPRO_BENCH_SUBSET`` (read now), else ``builtin``, of
    :func:`default_benchmarks`' representative order."""
    return default_benchmarks(
        subset=_env_int("REPRO_BENCH_SUBSET", builtin, minimum=1)
    )


def default_benchmarks(subset: Optional[int] = None) -> List[str]:
    """The 11 Table II GPU benchmarks, optionally a representative subset.

    The subset keeps the paper's extremes: HS (best case), SC (LLC-bound,
    worst case), 3DCON (remote misses) and NN (low miss rate).
    """
    if subset is None:
        return list(GPU_BENCHMARK_NAMES)
    representative = ["HS", "SC", "3DCON", "NN", "2DCON", "BP", "MM",
                      "LPS", "BT", "LUD", "SRAD"]
    return representative[: max(1, subset)]


def cpu_corunners(gpu_name: str, n_mixes: int) -> List[str]:
    """The first ``n_mixes`` Table II CPU co-runners of a GPU benchmark
    (a ``KeyError`` naming the choices for one Table II does not list)."""
    return list(TABLE_II[gpu_benchmark(gpu_name).name][: max(1, n_mixes)])


def job(
    cfg: SystemConfig,
    gpu: str,
    cycles: Optional[int] = None,
    warmup: Optional[int] = None,
    cpu: Optional[str] = None,
    label: Sequence[str] = (),
    faults: Any = None,
    builtin: Tuple[int, int] = (3000, 2000),
) -> JobSpec:
    """The job for one design point: a Table I config x a Table II mix x
    a window — the one rule every figure and command shares.

    ``cpu`` defaults to the GPU benchmark's first Table II co-runner; a
    window to ``$REPRO_CYCLES`` / ``$REPRO_WARMUP`` (read now, so tests
    can vary them after import), else ``builtin`` — ``(cycles, warmup)``,
    the figures' 3000 + 2000 unless a command states its own.
    """
    return JobSpec.make(
        cfg,
        gpu,
        cpu or cpu_corunners(gpu, 1)[0],
        cycles=default_cycles(builtin[0]) if cycles is None else cycles,
        warmup=default_warmup(builtin[1]) if warmup is None else warmup,
        label=label,
        faults=faults,
    )


def mechanism_jobs(
    benchmarks: Optional[Sequence[str]] = None,
    n_mixes: int = 1,
    cycles: Optional[int] = None,
    warmup: Optional[int] = None,
    mechanisms: Optional[Sequence[str]] = None,
) -> List[JobSpec]:
    """Enumerate the paper's mechanism sweep (Figs. 10-14, energy study).

    The cross product of (GPU benchmark x Table II CPU co-runner x
    mechanism), labelled ``(gpu, cpu, mechanism)`` — the key the
    experiment modules index their sweeps by.
    """
    mechanisms = tuple(mechanisms or MECHANISMS)
    return [
        job(mechanism_config(mech), gpu, cycles, warmup, cpu,
            label=(gpu, cpu, mech))
        for gpu in benchmarks or default_benchmarks()
        for cpu in cpu_corunners(gpu, n_mixes)
        for mech in mechanisms
    ]
