"""Shared fixtures: small, fast system configurations for unit tests."""

from __future__ import annotations

import pytest

from repro.config import (
    SystemConfig,
    baseline_config,
    delegated_replies_config,
    realistic_probing_config,
    table1_mix,
)


def _small(make_config, overrides) -> SystemConfig:
    """``make_config()`` shrunk to a 4x4 mesh that simulates quickly.

    Baseline column-major layout: 4 CPU nodes (west column), 2 memory
    nodes, 10 GPU nodes.
    """
    cfg = make_config(**table1_mix(4, 4))
    for name, value in overrides.items():
        setattr(cfg, name, value)
    return cfg


def small_config(**overrides) -> SystemConfig:
    return _small(baseline_config, overrides)


def small_dr_config(**overrides) -> SystemConfig:
    return _small(delegated_replies_config, overrides)


def small_rp_config(**overrides) -> SystemConfig:
    return _small(realistic_probing_config, overrides)


def all_awake(fabric, gpu_cores=()):
    """The scheduling reference: no router or NIC of ``fabric``, and none
    of ``gpu_cores``, ever sleeps.

    The object kernel has one stepping order; what it skips is routers
    and NICs with nothing to do (active sets, wake heap), and a GPU core
    skips the steps it knows to be failed issue retries (DESIGN.md,
    "Endpoint scheduling contract").  Marking every router and NIC active
    before every cycle and waking every core after it (so before the
    next cycle's core steps; cores are built awake), through the public
    wake API, turns that skipping off — so a run under ``all_awake`` is
    what a sleeping run must equal counter for counter.
    """
    step = fabric.step
    nets = {id(net): net for net in (fabric.request_net, fabric.reply_net)}

    def awake_step(cycle: int) -> None:
        for net in nets.values():
            for rid in range(len(net.routers)):
                net.mark_router_active(rid)
        for node in range(len(fabric.nics)):
            fabric.mark_nic_active(node)
        step(cycle)
        for core in gpu_cores:
            core.wake()

    fabric.step = awake_step
    return fabric


@pytest.fixture
def cfg_small() -> SystemConfig:
    return small_config()


@pytest.fixture
def cfg_small_dr() -> SystemConfig:
    return small_dr_config()


@pytest.fixture
def cfg_table1() -> SystemConfig:
    """The full Table I configuration (8x8, 40/16/8)."""
    return baseline_config()
