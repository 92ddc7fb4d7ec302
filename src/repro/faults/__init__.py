"""Fault injection & graceful degradation (``repro.faults``).

Deterministic, seed-reproducible hardware-fault scenarios for the NoC:
timed link failures, frozen routers and lossy links described by a
:class:`FaultPlan`, installed on the fabric behind the same single
``None``-check gating telemetry uses, plus the recovery machinery
(retransmit guard with DNF fallback, no-progress watchdog, degraded-mode
routing) that keeps every request answered while faults are live.

Entry points:

* :func:`repro.api.simulate` / :func:`repro.sim.simulator.run_simulation`
  accept ``faults=FaultPlan(...)``.
* ``python -m repro faults`` — chaos harness CLI (single runs, plan
  authoring, intensity sweeps).
* :func:`chaos_plan` — canonical fault scenario at a given intensity.
"""

from repro.faults.controller import (
    FaultController,
    PartitionedTopologyError,
    quiesce,
)
from repro.faults.plan import (
    FaultEvent,
    FaultPlan,
    FlitDrop,
    LinkDown,
    LinkUp,
    RouterFreeze,
    chaos_plan,
    event_from_dict,
    sorted_events,
)

__all__ = [
    "FaultController",
    "FaultEvent",
    "FaultPlan",
    "FlitDrop",
    "LinkDown",
    "LinkUp",
    "PartitionedTopologyError",
    "RouterFreeze",
    "chaos_plan",
    "event_from_dict",
    "quiesce",
    "sorted_events",
]
