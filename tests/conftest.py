"""Shared fixtures: small, fast system configurations for unit tests."""

from __future__ import annotations

import json
import os
import re
from collections import defaultdict
from fnmatch import fnmatchcase

import pytest

from repro.config import (
    SystemConfig,
    baseline_config,
    delegated_replies_config,
    realistic_probing_config,
    table1_mix,
)
from repro.noc.nic import MemoryNodeNic
from repro.noc.router import LOCAL_PORT


def _small(make_config, overrides) -> SystemConfig:
    """``make_config()`` shrunk to a 4x4 mesh that simulates quickly.

    Baseline column-major layout: 4 CPU nodes (west column), 2 memory
    nodes, 10 GPU nodes.
    """
    cfg = make_config(**table1_mix(4, 4))
    for name, value in overrides.items():
        setattr(cfg, name, value)
    return cfg


#: test file -> seconds its tests spent in the call phase
_CALL_SECONDS = defaultdict(float)


def pytest_runtest_logreport(report):
    if report.when == "call":
        _CALL_SECONDS[report.nodeid.split("::")[0]] += report.duration


def pytest_sessionfinish(session, exitstatus):
    """The time ledger: with ``REPRO_TEST_TIMES=PATH`` set, write each
    test file's summed call durations, slowest first, and their total as
    JSON (CI's tier-1 job holds the total under a ceiling)."""
    path = os.environ.get("REPRO_TEST_TIMES")
    if path:
        files = dict(sorted(_CALL_SECONDS.items(), key=lambda kv: -kv[1]))
        with open(path, "w") as out:
            json.dump({"total_s": round(sum(files.values()), 2),
                       "files": {k: round(v, 2) for k, v in files.items()}},
                      out, indent=1)


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
    skips the steps it knows would change only what it settles later
    (DESIGN.md, "Endpoint scheduling contract"); memory nodes step every
    cycle.  Marking every router and NIC active before every cycle and
    waking every core after it (so before the next cycle's core steps;
    cores are built awake), through the public wake API, turns that
    skipping off — so a run under ``all_awake`` is what a sleeping run
    must equal counter for counter.
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


def assert_fabric_invariants(fabric) -> None:
    """What must hold of an object-kernel fabric between any two cycles
    (a first slice of ROADMAP item 1(b)).

    Per input VC: the credit count is in range and equals the flits its
    entries hold; every buffered worm has fully arrived except, at most,
    the last one, and that one is ``owner``; a VC is in its router's
    active set exactly while it buffers something; the head worm's
    downstream VC is a record of the input port its route leads to,
    inside the packet's VC range; fewer flits of the head have left than
    it has.  Per fabric: every injected flit is buffered, delivered, or
    part of a worm that is half-way out of an ejection port (so not
    under a fault plan that drops packets).  Per NIC: one
    outside the fabric's active set is a compute NIC with nothing it
    could push now — no in-flight worm's VC (a local VC with an
    ``owner``) has credit, and no queue head has a startable VC in its
    range.
    """
    for nic in fabric.nics:
        if nic.node_id in fabric._active_nics:
            continue
        at = ("asleep", nic.node_id)
        assert not isinstance(nic, MemoryNodeNic), at
        for kind, (row, _router, _net, cap) in enumerate(nic.rows):
            for ivc in row:
                # an in-flight worm (an owned local VC) has no credit, and
                # with a queue head waiting no VC of the range is startable
                if ivc.owner is not None or nic.queues[kind]:
                    assert ivc.occ >= cap, at
    buffered = delivered = ejecting = 0
    for net in fabric._net_list:
        delivered += net.flits_delivered
        for router in net.routers:
            for row in router.inputs:
                for ivc in row:
                    at = (net.name, router.rid, ivc.port, ivc.vc)
                    q = ivc.q
                    assert 0 <= ivc.occ <= router.vc_cap, at
                    assert ivc.occ == sum(entry[1] for entry in q), at
                    assert bool(q) == (ivc in router.active), at
                    assert ivc.owner is None or ivc.owner is q[-1][0], at
                    for i, (pkt, avail, _ready, _key) in enumerate(q):
                        arrived = avail + (ivc.sent if i == 0 else 0)
                        if pkt is ivc.owner:
                            assert arrived < pkt.size_flits, at
                        else:
                            assert arrived == pkt.size_flits, at
                    buffered += ivc.occ
                    if not q:
                        assert ivc.route_out == -1 and ivc.out is None, at
                        assert ivc.sent == 0, at
                        continue
                    head = q[0][0]
                    assert ivc.sent < head.size_flits, at
                    if ivc.route_out == LOCAL_PORT:
                        ejecting += ivc.sent
                    out = ivc.out
                    if out is not None:
                        assert ivc.route_out > LOCAL_PORT, at
                        assert router.downstream[ivc.route_out][out.vc] is out, at
                        vlo, vhi = net.vc_ranges[head.net]
                        assert vlo <= out.vc < vhi, at
                    else:
                        assert ivc.sent == 0 or ivc.route_out == LOCAL_PORT, at
    injected = sum(nic.flits_injected for nic in fabric.nics)
    assert injected == buffered + delivered + ejecting


def claim_terms(path: str) -> list:
    """The ``data.KEY`` / ``LABEL.COL`` / ``GLOB.COL`` terms a
    :mod:`repro.experiments.claims` path reads, in order."""
    terms = []
    for term in path.split(" + "):
        call = re.fullmatch(r"\w+\((.*)\)", term)
        terms += call.group(1).split(", ") if call else [term]
    return terms


def assert_claim_columns(result) -> None:
    """Every name a claim on ``result``'s figure reads is in ``result``:
    each data key, each column (on every row a label or glob matches) and
    each label or glob that is not a benchmark (a small run has fewer
    benchmarks)."""
    from repro.experiments.claims import BENCHMARKS, CLAIMS

    columns = {col for _, values in result.rows for col in values}
    for claim in CLAIMS:
        if claim.figure != result.name:
            continue
        for path in filter(None, (claim.path, claim.other)):
            for term in claim_terms(path):
                if term.startswith("data."):
                    assert term[5:] in result.data, (path, term)
                    continue
                pattern, col = term.rsplit(".", 1)
                rows = [values for label, values in result.rows
                        if fnmatchcase(label, pattern)]
                assert rows or pattern in BENCHMARKS, (path, term)
                assert col in columns, (path, term)
                assert all(col in values for values in rows), (path, term)


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
