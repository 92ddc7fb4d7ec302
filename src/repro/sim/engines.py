"""Which kernel steps the NoC fabric: one rule, decided here and only here.

Two implementations of the per-cycle contract of DESIGN.md §6.1 return
the same counters, so the choice between them is a speed choice, never a
modelling one: ``object``, the per-object kernel
(:class:`repro.noc.network.NocFabric`) that runs everything and is the
readable oracle, and ``vector``, the struct-of-arrays batch kernel
(:class:`repro.sim.vector.fabric.VectorFabric`) whose cost barely grows
with node count and which lacks what :data:`OBJECT_ONLY` lists.

:func:`select_backend` picks: with no name, the faster kernel that can do
the run; with a name — the ``backend=`` argument where one run is built,
else ``$REPRO_BACKEND``, the override every entry point honours so any
command can be cross-checked on the other kernel — it checks and obeys.
"""

from __future__ import annotations

import os
from typing import Optional, Tuple

from repro.config.system import NocConfig, RoutingPolicy, Topology

#: names a kernel for every run that does not pass ``backend=``.
ENV_VAR = "REPRO_BACKEND"

#: the vector kernel is the faster one on a mesh of more than this many
#: nodes, and on no other topology at any size tried: the measured table
#: is DESIGN.md §12, and ``ratio_gate.py vector`` re-measures both sides.
VECTOR_ABOVE_NODES = 225

#: what a run can need that only the object kernel has: what an error
#: calls it, and the test for it.  Closing one of the vector kernel's gaps
#: deletes its row.
OBJECT_ONLY = (
    ("telemetry", lambda noc, telemetry, faults: telemetry),
    ("adaptive routing", lambda noc, telemetry, faults:
        noc.routing is not RoutingPolicy.CDR),
    ("link-down or router-freeze fault events", lambda noc, telemetry, faults:
        faults is not None
        and any(ev.kind != "flit_drop" for ev in faults.events)),
)


class BackendError(ValueError):
    """Unknown or unusable simulation backend.

    The message is always a single line, suitable for the CLIs' shared
    ``error: <message>`` exit convention.
    """


def available_backends() -> Tuple[str, ...]:
    """The kernel names, sorted."""
    return ("object", "vector")


def select_backend(
    name: Optional[str],
    n_nodes: int,
    noc_cfg: NocConfig,
    telemetry: bool = False,
    faults=None,
) -> str:
    """The kernel for one run: ``name`` (else ``$REPRO_BACKEND``) checked
    and obeyed, else the faster kernel that can do the run.

    Raises a one-line :class:`BackendError` for an unknown name and for
    ``vector`` named together with something on :data:`OBJECT_ONLY`.
    """
    needs = [
        need for need, test in OBJECT_ONLY if test(noc_cfg, telemetry, faults)
    ]
    name = name or os.environ.get(ENV_VAR)
    if not name:
        big_mesh = (
            noc_cfg.topology is Topology.MESH and n_nodes > VECTOR_ABOVE_NODES
        )
        return "vector" if big_mesh and not needs else "object"
    if name not in available_backends():
        raise BackendError(
            f"unknown backend {name!r} "
            f"(available: {', '.join(available_backends())})"
        )
    if name == "vector" and needs:
        raise BackendError(
            f"backend 'vector' does not support {needs[0]}; "
            "use backend='object'"
        )
    return name


def build_fabric(name: Optional[str], topology, noc_cfg, mem_nodes=()):
    """Construct the fabric on the kernel :func:`select_backend` gives."""
    if select_backend(name, topology.n, noc_cfg) == "vector":
        from repro.sim.vector.fabric import VectorFabric as Fabric
    else:
        from repro.noc.network import NocFabric as Fabric
    return Fabric(topology, noc_cfg, mem_nodes=tuple(mem_nodes))
