"""The paper's strongest prior (RP).  Delegated Replies itself is decided
at the memory node: :mod:`repro.sim.memory_node`."""

from repro.core.realistic_probing import ProbeEngine, ProbeStats

__all__ = [
    "ProbeEngine",
    "ProbeStats",
]
