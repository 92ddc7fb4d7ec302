"""The explore subsystem's objective vector.

Every candidate design — whether scored by the analytical surrogate or by
the cycle-level simulator — is reduced to the same four objectives:

* ``cpu_latency_p95`` (min, cycles): the paper's victim metric; the tail
  CPU round-trip latency under GPU reply clogging.
* ``throughput`` (max, insts/cycle/core): per-GPU-core IPC, the work the
  accelerator actually gets done.
* ``area_mm2`` (min): the DSENT/CACTI-style NoC area from
  ``repro.analysis.area`` plus the Delegated Replies pointer+FRQ overhead
  when the mechanism pays for it.  Purely config-derived, so identical on
  the surrogate and simulated paths.
* ``energy_pj_per_inst`` (min): system energy per instruction.  Simulated
  points use the counter-based ``repro.analysis.energy`` report; surrogate
  points use the dominant static/IPC + dynamic terms of the same model
  (the NoC dynamic term needs flit-hop counters the surrogate does not
  produce — it is < 2% of system energy at these constants, and the
  omission is consistent across surrogate points so ranking is unaffected).

Keeping the vector identical across both paths is what lets the hybrid
screen promote surrogate points into simulation without changing the
geometry of the frontier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.analysis.area import delegated_replies_overhead, noc_area
from repro.analysis.energy import (
    CLOCK_HZ,
    DYNAMIC_PJ_PER_INST,
    STATIC_POWER_W,
    energy_report,
)
from repro.config.system import SystemConfig
from repro.explore.pareto import Vector, default_reference, hypervolume
from repro.model.compose import Prediction
from repro.sim.metrics import SimulationResult

#: IPC floor when converting static power to per-instruction energy; a
#: fully clogged window would otherwise divide by zero.
_MIN_IPC = 1e-3


@dataclass(frozen=True)
class Objective:
    name: str
    sense: str  # "min" | "max"
    unit: str = ""

    def to_dict(self) -> Dict[str, str]:
        return {"name": self.name, "sense": self.sense, "unit": self.unit}


OBJECTIVES: Tuple[Objective, ...] = (
    Objective("cpu_latency_p95", "min", "cycles"),
    Objective("throughput", "max", "insts/cycle/core"),
    Objective("area_mm2", "min", "mm2"),
    Objective("energy_pj_per_inst", "min", "pJ/inst"),
)

OBJECTIVE_NAMES: Tuple[str, ...] = tuple(o.name for o in OBJECTIVES)
SENSES: Tuple[str, ...] = tuple(o.sense for o in OBJECTIVES)


def vector(objectives: Mapping[str, float]) -> Tuple[float, ...]:
    """An objective dict as a vector in :data:`OBJECTIVE_NAMES` order."""
    return tuple(float(objectives[n]) for n in OBJECTIVE_NAMES)


def score_frontiers(
    evaluated: Sequence[Vector], frontiers: Sequence[Sequence[Vector]]
) -> Tuple[Tuple[float, ...], List[float]]:
    """Shared-reference scoring: ``(reference, hypervolume per frontier)``.

    The reference point spans every evaluated vector (surrogate values,
    which every evaluation has), so frontiers from different searches
    over one space are scored in the same box once their evaluation
    sets are unioned.
    """
    ref = default_reference(evaluated, SENSES)
    return ref, [hypervolume(f, ref, SENSES) for f in frontiers]


def design_area_mm2(cfg: SystemConfig) -> float:
    """Total NoC area of a design, including the DR overhead it buys."""
    total = noc_area(cfg).total
    if cfg.delegation_active:
        total += delegated_replies_overhead(cfg)["total"]
    return total


def _static_energy_pj_per_inst(gpu_ipc: float, n_gpu: int) -> float:
    """Static power amortised over instructions retired per cycle.

    ``gpu_ipc`` is per-core; the chip retires ``gpu_ipc * n_gpu`` per
    cycle, and static power burns ``STATIC_POWER_W / CLOCK_HZ`` joules in
    that cycle regardless.
    """
    retired_per_cycle = max(_MIN_IPC, gpu_ipc * max(1, n_gpu))
    return STATIC_POWER_W / CLOCK_HZ * 1e12 / retired_per_cycle


def from_prediction(cfg: SystemConfig, pred: Prediction) -> Dict[str, float]:
    """Objective vector from a surrogate prediction (screening path)."""
    return {
        "cpu_latency_p95": float(pred.cpu_latency_p95),
        "throughput": float(pred.gpu_ipc),
        "area_mm2": design_area_mm2(cfg),
        "energy_pj_per_inst": _static_energy_pj_per_inst(
            pred.gpu_ipc, cfg.n_gpu
        )
        + DYNAMIC_PJ_PER_INST,
    }


def from_result(cfg: SystemConfig, result: SimulationResult) -> Dict[str, float]:
    """Objective vector from a simulation result (ground-truth path)."""
    return {
        "cpu_latency_p95": float(result.cpu_latency_p95),
        "throughput": float(result.gpu_ipc),
        "area_mm2": design_area_mm2(cfg),
        "energy_pj_per_inst": energy_report(result, cfg).system_pj_per_inst,
    }
