"""Backend-selection layer: the simulation-engine registry.

``repro.api.simulate()`` (and every CLI behind it) picks a *backend* — an
implementation of the NoC fabric's per-cycle kernel:

``object``
    The per-object kernel (:class:`repro.noc.network.NocFabric`): Python
    routers/NICs stepped by the active-set scheduler.  Supports
    everything (telemetry, adaptive routing, every fault plan) and is the
    readable oracle the fast path is validated against.

``vector``
    The struct-of-arrays batch kernel
    (:class:`repro.sim.vector.fabric.VectorFabric`): flit/VC/credit/link
    state in preallocated numpy arrays, the whole network advanced in
    batch per-cycle array ops.  ~10x the object kernel on saturated
    meshes; validated counter-identical to the object kernel (both
    implement the per-cycle contract of DESIGN.md §6.1).  Unsupported
    features fail fast with a one-line :class:`BackendError` instead of
    silently diverging.

The two return the same numbers, so choosing a backend is a speed
choice, never a modelling one.

The registry is deliberately tiny: a name → (build, check) table plus the
three helpers the rest of the tree uses.  ``resolve_backend(None)`` honours
the ``REPRO_BACKEND`` environment variable so whole pipelines can be
switched without touching call sites.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Optional, Tuple

#: environment variable consulted when no explicit backend is passed.
ENV_VAR = "REPRO_BACKEND"

#: the backend used when neither the caller nor the environment chose one.
DEFAULT_BACKEND = "object"


class BackendError(ValueError):
    """Unknown or unusable simulation backend.

    The message is always a single line, suitable for the CLIs' shared
    ``error: <message>`` exit convention.
    """


# -- engine implementations -------------------------------------------------


def _build_object(topology, noc_cfg, mem_nodes):
    from repro.noc.network import NocFabric

    return NocFabric(topology, noc_cfg, mem_nodes=mem_nodes)


def _check_object(telemetry_enabled: bool, faults) -> None:
    return None  # the object kernel supports everything


def _build_vector(topology, noc_cfg, mem_nodes):
    from repro.sim.vector.fabric import VectorFabric

    return VectorFabric(topology, noc_cfg, mem_nodes=mem_nodes)


def _check_vector(telemetry_enabled: bool, faults) -> None:
    try:
        import numpy  # noqa: F401
    except ImportError:  # pragma: no cover - numpy ships with the toolchain
        raise BackendError(
            "backend 'vector' requires numpy, which is not installed; "
            "use backend='object'"
        ) from None
    if telemetry_enabled:
        raise BackendError(
            "backend 'vector' does not support telemetry; "
            "use backend='object' for traced runs"
        )
    if faults is not None:
        for ev in faults.events:
            if ev.kind not in ("flit_drop", "flit_corrupt"):
                raise BackendError(
                    f"backend 'vector' does not support fault event "
                    f"'{ev.kind}'; use backend='object' for "
                    f"link-down/router-freeze plans"
                )


#: name -> {"build": (topology, noc_cfg, mem_nodes) -> fabric,
#:          "check": (telemetry_enabled, faults) -> None | raises}
_ENGINES: Dict[str, Dict[str, Callable]] = {
    "object": {"build": _build_object, "check": _check_object},
    "vector": {"build": _build_vector, "check": _check_vector},
}


# -- public helpers ---------------------------------------------------------


def available_backends() -> Tuple[str, ...]:
    """The registered backend names, sorted."""
    return tuple(sorted(_ENGINES))


def resolve_backend(name: Optional[str] = None) -> str:
    """Resolve a backend name: explicit > ``$REPRO_BACKEND`` > default.

    Raises :class:`BackendError` (one line) for unknown names.
    """
    if name is None:
        name = os.environ.get(ENV_VAR) or DEFAULT_BACKEND
    if name not in _ENGINES:
        raise BackendError(
            f"unknown backend {name!r} "
            f"(available: {', '.join(available_backends())})"
        )
    return name


def validate_backend(
    name: Optional[str] = None,
    *,
    telemetry: bool = False,
    faults=None,
) -> str:
    """Resolve ``name`` and check it supports the requested features."""
    name = resolve_backend(name)
    _ENGINES[name]["check"](telemetry, faults)
    return name


def build_fabric(name: Optional[str], topology, noc_cfg, mem_nodes=()):
    """Construct the fabric for ``name`` (resolving env/default)."""
    name = resolve_backend(name)
    return _ENGINES[name]["build"](topology, noc_cfg, tuple(mem_nodes))
