"""Delegated Replies' laws about whole runs, as metamorphic relations.

Section IV of the paper states rules a run must obey whatever the
workload; each test here checks one over a full system
(ROADMAP item 2):

* *idle DR is the baseline* — where the reply injection path never
  blocks, DR has nothing to delegate and must reproduce the baseline;
* *the accounting closes* — run to drain, every primary GPU L1 miss ends
  exactly once, as an LLC reply, a delegated remote hit, a delayed hit
  or a remote miss bounced with the Do-Not-Forward bit;
* *DNF is final* — a request that carries the DNF bit is never
  delegated again.
"""

from __future__ import annotations

import pytest

from repro.config import mechanism_config
from repro.noc.packet import MessageType, NetKind
from repro.sim.simulator import build_system, run_simulation

from conftest import small_dr_config

#: the one counter DR moves without delegating anything: LLC replies it
#: marked delegatable (the baseline marks none)
DR_MARKS = "mem.delegatable_replies"


def _idle(mechanism: str):
    """A light load on a 3x3 chip: 4 GPU cores running NN, one CPU core,
    4 memory nodes, 2x link bandwidth and 4 VCs per port."""
    cfg = mechanism_config(mechanism, mesh_width=3, mesh_height=3,
                           n_gpu=4, n_cpu=1, n_mem=4)
    cfg.noc.bandwidth_factor = 2.0
    cfg.noc.vcs_per_port = 4
    return cfg.validate()


def _count_blocked_injections(system) -> list:
    """Count, per run, the memory-node cycles on which DR's trigger
    condition holds: a reply is queued and the reply network moved none
    of its flits, or the buffer cannot take a worst-case reply."""
    blocked = [0]
    for mem in system.memory_nodes:
        nic = mem.nic
        step = nic.inject_step

        def counted(cycle, nic=nic, step=step):
            queued = bool(nic.queues[NetKind.REPLY])
            before = nic.flits_injected_net[NetKind.REPLY]
            done = step(cycle)
            moved = nic.flits_injected_net[NetKind.REPLY] - before
            if queued and not (moved and nic.can_enqueue(NetKind.REPLY)):
                blocked[0] += 1
            return done

        nic.inject_step = counted
    return blocked


def test_idle_dr_is_the_baseline():
    results = {}
    for mechanism in ("baseline", "dr"):
        cfg = _idle(mechanism)
        system = build_system(cfg, "NN", "blackscholes")
        blocked = _count_blocked_injections(system)
        results[mechanism] = run_simulation(
            cfg, "NN", "blackscholes", cycles=1500, warmup=300, system=system
        ).to_dict()
        # the precondition: the reply injection path never blocked
        assert blocked == [0], mechanism
    base, dr = results["baseline"], results["dr"]
    assert dr["counters"][DR_MARKS] > 0  # DR had candidates all along
    assert dr["counters"]["mem.delegations"] == 0
    diff = {k for k in base["counters"]
            if base["counters"][k] != dr["counters"].get(k)}
    assert diff == {DR_MARKS}
    assert set(dr["counters"]) == set(base["counters"])
    assert {k: v for k, v in dr.items() if k != "counters"} == {
        k: v for k, v in base.items() if k != "counters"
    }


@pytest.fixture(scope="module")
def drained_ledger():
    """HS + canneal under DR on the 4x4 test chip for 3000 cycles, then
    GPU issue stopped and the system run until every GPU miss has its
    data (at most 20000 more cycles), with a ledger of every primary L1
    miss, every data arrival at a GPU core, every LLC reply to a DNF
    request and every delegation.  The delayed-hit watchdog fires after
    150 cycles instead of 4096, so that its bounce happens too."""
    cfg = small_dr_config()
    cfg.delegation.delayed_hit_timeout = 150
    system = build_system(cfg, "HS", "canneal")
    open_misses: set = set()
    ledger = {"primary": 0, "llc": 0, "c2c": 0, "unsolicited": [],
              "dnf_replies": {}, "dnf_delegatable": 0, "dnf_delegated": 0}

    for core in system.gpu_cores:

        def observe(core, block):
            key = (core.node_id, block)
            assert key not in open_misses  # the MSHR merges a second miss
            open_misses.add(key)
            ledger["primary"] += 1

        def on_packet(pkt, cycle, handler=core.nic.handler, node=core.node_id):
            if pkt.mtype in (MessageType.READ_REPLY, MessageType.C2C_REPLY):
                key = (node, pkt.block)
                if key in open_misses:
                    open_misses.remove(key)
                    ledger["llc" if pkt.mtype is MessageType.READ_REPLY
                           else "c2c"] += 1
                else:
                    ledger["unsolicited"].append((key, pkt.mtype))
            handler(pkt, cycle)

        core.miss_observer = observe
        core.nic.handler = on_packet

    for mem in system.memory_nodes:

        def reply_for(result, cycle, make=mem._reply_for):
            pkt = make(result, cycle)
            if result.req.dnf:
                # held, not just its id: a freed packet's id is reused
                ledger["dnf_replies"][id(pkt)] = pkt
                ledger["dnf_delegatable"] += pkt.delegate_to is not None
            return pkt

        def scan(cycle, nic=mem.nic, run_scan=mem.nic._delegate_scan):
            queued = list(nic.queues[NetKind.REPLY])
            run_scan(cycle)
            left = set(map(id, nic.queues[NetKind.REPLY]))
            # a scan moves nothing but what it delegates
            ledger["dnf_delegated"] += sum(
                id(pkt) not in left and id(pkt) in ledger["dnf_replies"]
                for pkt in queued
            )

        mem._reply_for = reply_for
        mem.nic._delegate_scan = scan

    system.run(3000)
    for core in system.gpu_cores:
        core.stall(1 << 62)
    for _ in range(20000):
        if not open_misses and not any(
            len(core.frq) or len(core.mshrs) for core in system.gpu_cores
        ):
            break
        system.run(1)
    ledger["open"] = len(open_misses)
    for name in ("frq_remote_hits", "frq_delayed_hits", "frq_remote_misses",
                 "frq_timeout_dnfs"):
        ledger[name] = sum(getattr(core.stats, name) for core in system.gpu_cores)
    ledger["delegations"] = sum(m.nic.delegations for m in system.memory_nodes)
    ledger["dnf_requests"] = sum(
        m.stats.dnf_requests for m in system.memory_nodes
    )
    return ledger


def test_every_primary_miss_ends_once(drained_ledger):
    led = drained_ledger
    hits, delayed = led["frq_remote_hits"], led["frq_delayed_hits"]
    misses, timeouts = led["frq_remote_misses"], led["frq_timeout_dnfs"]
    # every outcome occurred, so each term below is exercised
    assert min(hits, delayed, misses, timeouts) > 0
    # drained: each primary miss got its data exactly once
    assert led["open"] == 0 and led["unsolicited"] == []
    assert led["llc"] + led["c2c"] == led["primary"]
    # each delegation ended as one FRQ outcome (no merging configured)
    assert hits + delayed + misses == led["delegations"]
    # a delayed hit whose fill came too late bounced as a DNF instead
    assert led["c2c"] == hits + delayed - timeouts
    assert led["dnf_requests"] == misses + timeouts
    # the LLC answered every undelegated miss and every bounce
    assert led["llc"] == led["primary"] - led["delegations"] + misses + timeouts


def test_dnf_request_is_never_delegated_again(drained_ledger):
    led = drained_ledger
    assert len(led["dnf_replies"]) == led["dnf_requests"] > 0
    assert led["dnf_delegatable"] == 0
    assert led["dnf_delegated"] == 0
