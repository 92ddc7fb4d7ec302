"""repro: reproduction of "Delegated Replies: Alleviating Network Clogging
in Heterogeneous Architectures" (HPCA 2022).

The package builds, in pure Python, the full simulation stack the paper's
evaluation rests on — a cycle-level wormhole NoC, GPU/CPU core models, a
shared LLC with per-line core pointers, GDDR5 memory controllers — plus the
paper's mechanism (Delegated Replies) and every comparator it is evaluated
against (Realistic Probing, AVCP, adaptive routing, shared L1 schemes and
bandwidth overprovisioning).

Quickstart::

    from repro import delegated_replies_config, simulate

    cfg = delegated_replies_config()
    result = simulate(cfg, "HS", cycles=20_000)
    print(result.gpu_ipc, result.cpu_latency_avg)

The full stable surface is :mod:`repro.api`.
"""

from repro.config import (
    baseline_config,
    delegated_replies_config,
    realistic_probing_config,
    SystemConfig,
    Mechanism,
    Layout,
    Topology,
)

__version__ = "1.0.0"

__all__ = [
    "Layout",
    "Mechanism",
    "SystemConfig",
    "Topology",
    "baseline_config",
    "delegated_replies_config",
    "realistic_probing_config",
    "run_simulation",
    "simulate",
    "__version__",
]


def __getattr__(name: str):
    """The library names of ``__all__`` that live in :mod:`repro.api`
    (``simulate``, ``run_simulation``), looked up there on
    first use (PEP 562) so ``import repro`` stays cheap."""
    if name in __all__:
        import repro.api

        return getattr(repro.api, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
