"""Equivalence harness: the scheduler must be behaviour-preserving.

The object kernel has one stepping order (DESIGN.md, "Per-cycle NoC
contract"); the active router/NIC sets and the wake heap only decide
which routers and NICs are *visited*.  Running the same seeded workload
with sleeping on (the default) and with every router and NIC kept awake
(``conftest.all_awake``) must produce **bit-identical** counters.  These
tests fail on the first counter that drifts, which pins down a missed
wake event — including under telemetry, adaptive routing, multi-pass
(2x bandwidth) cycles and link-down/router-freeze plans, none of which
the vector backend can cross-check.

The second half asserts flit/packet conservation through the NoC under
heavy delegation pressure: nothing the delegation path converts, rejects
or re-routes may create or lose traffic.

The last part is the same differential for the endpoints: a GPU core
that knows its next steps are failed issue retries, or a memory node
whose next steps would only count stalls, sleeps through them (DESIGN.md,
"Endpoint scheduling contract") and must leave what one woken before
every cycle leaves — counters, raw L1 misses, stall counts and the issue
queues themselves.  Under full telemetry the same run must also leave
what the locality oracle and the blame survey left when the one scanned
every L1 at each miss and the other walked every chain from scratch.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.bench import SCENARIOS, replay
from repro.config.system import (
    DelegationConfig,
    L1Organization,
    NocConfig,
    RoutingPolicy,
)
from repro.faults import quiesce
from repro.faults.plan import (
    FaultPlan, FlitDrop, LinkDown, LinkUp, RouterFreeze,
)
from repro.noc import MeshTopology, MessageType, NocFabric, Packet, TrafficClass
from repro.noc.packet import NetKind
from repro.noc.topology import build_topology
from repro.sim.layout import build_layout
from repro.sim.metrics import collect_counters
from repro.sim.simulator import build_system, run_simulation
from repro.telemetry import collector as collector_module
from repro.telemetry.blame import classify_head, survey_stalls, walk_chain

from repro.workloads.gpu import GPU_BENCHMARK_NAMES

from conftest import (
    all_awake,
    assert_fabric_invariants,
    small_config,
    small_dr_config,
    small_rp_config,
)


def _fabric_counters(fabric: NocFabric) -> dict:
    """Every observable counter of a fabric, flattened for == comparison."""
    out: dict = {}
    nets = {id(net): net for net in (fabric.request_net, fabric.reply_net)}
    for i, net in enumerate(nets.values()):
        out[f"net{i}.cycles"] = net.cycles
        out[f"net{i}.packets_delivered"] = net.packets_delivered
        out[f"net{i}.flits_delivered"] = net.flits_delivered
        out[f"net{i}.delivered_by_type"] = dict(net.delivered_by_type)
        out[f"net{i}.link_flits"] = [list(row) for row in net.link_flits]
        out[f"net{i}.flits_routed"] = [r.flits_routed for r in net.routers]
        out[f"net{i}.buffered"] = [r.buffered_flits() for r in net.routers]
    for nic in fabric.nics:
        nid = nic.node_id
        out[f"nic{nid}.flits_injected"] = nic.flits_injected
        out[f"nic{nid}.injected_net"] = dict(nic.flits_injected_net)
        out[f"nic{nid}.sent_net"] = dict(nic.packets_sent_net)
        out[f"nic{nid}.received"] = dict(nic.flits_received)
        out[f"nic{nid}.data_flits"] = nic.data_flits_received
        if hasattr(nic, "delegations"):
            out[f"nic{nid}.delegations"] = nic.delegations
            out[f"nic{nid}.blocked"] = nic.blocked_cycles
            out[f"nic{nid}.observed"] = nic.observed_cycles
    return out


def _run_synthetic(config_name: str, cycles: int, reference: bool) -> dict:
    scenario = SCENARIOS[config_name]
    fabric = scenario.build()
    if reference:
        all_awake(fabric)
    replay(
        fabric, scenario.schedule(cycles),
        on_cycle=lambda cycle: cycle % 50 or assert_fabric_invariants(fabric),
    )
    return _fabric_counters(fabric)


def _assert_no_drift(ref: dict, opt: dict) -> None:
    diffs = {k: (ref[k], opt.get(k)) for k in ref if opt.get(k) != ref[k]}
    assert not diffs, f"counters drifted when routers/NICs/cores sleep: {diffs}"


@pytest.mark.parametrize("config_name", ["mesh8x8", "mesh8x8_dr", "shared_vnet"])
def test_synthetic_counters_bit_identical(config_name):
    """Sleeping vs all-awake scheduling on the bench traffic generators."""
    opt = _run_synthetic(config_name, 1500, reference=False)
    ref = _run_synthetic(config_name, 1500, reference=True)
    _assert_no_drift(ref, opt)


def adaptive_config():
    cfg = small_dr_config()
    cfg.noc.routing = RoutingPolicy.FOOTPRINT
    return cfg


def double_bandwidth_config():
    cfg = small_dr_config()
    cfg.noc.bandwidth_factor = 2.0
    return cfg


def traced_double_bandwidth_adaptive_config():
    cfg = adaptive_config()
    cfg.noc.bandwidth_factor = 2.0
    cfg.telemetry.enabled = True
    cfg.telemetry.mode = "full"
    return cfg


#: a link that goes down and comes back, around a router freeze: the
#: detour-table swap and the thaw must wake whatever they unblock
LINK_AND_FREEZE_PLAN = FaultPlan(events=[
    LinkDown(at=150, a=5, b=6),
    RouterFreeze(at=200, router=9, cycles=120),
    LinkUp(at=450, a=5, b=6),
])


@pytest.mark.parametrize("make_cfg,faults", [
    pytest.param(small_config, None, id="small_config"),
    pytest.param(small_dr_config, None, id="small_dr_config"),
    pytest.param(adaptive_config, None, id="adaptive"),
    pytest.param(double_bandwidth_config, None, id="double_bandwidth"),
    pytest.param(traced_double_bandwidth_adaptive_config, None,
                 id="traced_double_bandwidth_adaptive"),
    pytest.param(small_dr_config, LINK_AND_FREEZE_PLAN, id="link_and_freeze"),
])
def test_full_system_counters_bit_identical(make_cfg, faults):
    """End-to-end: every counter in collect_counters matches both ways
    (and every stall charge, where the config traces)."""

    def run(reference: bool) -> dict:
        system = build_system(make_cfg(), "HS", "canneal", faults=faults)
        if reference:
            all_awake(system.fabric, system.memory_nodes)
        for _ in range(14):
            system.run(50)
            assert_fabric_invariants(system.fabric)
        out = collect_counters(system)
        if system.telemetry is not None:
            system.telemetry.stalls.flush(system.cycle)
            out["stall_table"] = system.telemetry.stalls.snapshot()
        return out

    opt = run(False)
    ref = run(True)
    if faults is not None:
        assert ref["fault.links_downed"] > 0
    _assert_no_drift(ref, opt)


# ---------------------------------------------------------------------------
# conservation under heavy delegation
# ---------------------------------------------------------------------------


def _drain(fabric: NocFabric, start_cycle: int, limit: int = 6000) -> int:
    """Step the fabric with injection stopped until it is empty."""
    cycle = start_cycle
    while cycle < start_cycle + limit:
        fabric.step(cycle)
        cycle += 1
        if fabric.in_flight_flits() == 0 and all(
            not nic.queues[NetKind.REQUEST]
            and not nic.queues[NetKind.REPLY]
            and all(ivc.owner is None for row in nic._local.values() for ivc in row)
            for nic in fabric.nics
        ):
            return cycle
    raise AssertionError("fabric failed to drain — flits lost or stuck")


def test_packet_conservation_under_heavy_delegation():
    """No flit is created or destroyed while delegation rewrites traffic.

    Memory nodes are hammered until their reply buffers block, forcing the
    delegation path (reply -> 1-flit delegated request conversion) to fire
    constantly; after the sources stop, the fabric must drain completely
    and the delivered totals must match the post-delegation send counts.
    """
    mem_nodes = (3, 7, 11, 15)
    fabric = NocFabric(MeshTopology(4, 4), NocConfig(), mem_nodes=mem_nodes)
    for m in mem_nodes:
        fabric.nic(m).set_delegation(DelegationConfig())
    for nic in fabric.nics:
        nic.handler = lambda pkt, cycle: None
    compute = [n for n in range(16) if n not in mem_nodes]

    cycle = 0
    for cycle in range(1200):
        # every memory node posts a delegatable 9-flit reply each cycle —
        # far beyond reply-network capacity, so the buffers stay blocked
        for i, m in enumerate(mem_nodes):
            dst = compute[(cycle + i) % len(compute)]
            sharer = compute[(cycle + 2 * i + 1) % len(compute)]
            fabric.nic(m).try_send(
                Packet(m, dst, MessageType.READ_REPLY, TrafficClass.GPU, 9,
                       delegate_to=sharer if sharer != dst else None),
                cycle,
            )
            src = compute[(3 * cycle + i) % len(compute)]
            fabric.nic(src).try_send(
                Packet(src, m, MessageType.READ_REQ, TrafficClass.GPU, 1),
                cycle,
            )
        fabric.step(cycle)

    delegations = sum(fabric.nic(m).delegations for m in mem_nodes)
    assert delegations > 100, "workload failed to trigger heavy delegation"

    _drain(fabric, cycle + 1)

    nets = {id(net): net for net in (fabric.request_net, fabric.reply_net)}
    delivered_pkts = sum(n.packets_delivered for n in nets.values())
    delivered_flits = sum(n.flits_delivered for n in nets.values())
    sent_pkts = sum(
        nic.packets_sent_net[NetKind.REQUEST]
        + nic.packets_sent_net[NetKind.REPLY]
        for nic in fabric.nics
    )
    injected_flits = sum(nic.flits_injected for nic in fabric.nics)
    # packets_sent_net is adjusted on delegation (reply decremented,
    # request incremented) so sends == deliveries exactly
    assert delivered_pkts == sent_pkts
    assert delivered_flits == injected_flits


# ---------------------------------------------------------------------------
# endpoint scheduling: sleeping GPU cores
# ---------------------------------------------------------------------------

MECHANISMS = {
    "baseline": small_config,
    "dr": small_dr_config,
    "rp": small_rp_config,
}


def _endpoint_state(system) -> dict:
    """``collect_counters`` (which settles sleeping cores) plus what it
    does not carry: raw L1 misses, per-core stalls, the issue queues."""
    out = collect_counters(system)
    for i, core in enumerate(system.gpu_cores):
        out[f"core{i}.l1.misses"] = core.l1.misses
        out[f"core{i}.issue_stalls"] = core.stats.issue_stalls
        out[f"core{i}.ready"] = sorted(core._ready)
        out[f"core{i}.stalled"] = list(core._stalled)
    return out


def _endpoint_pair(cfg_of, cycles, gpu="HS", finish=None, **build):
    """Run the same system with every router, NIC and GPU core kept awake
    and with sleeping on; returns (reference state, sleeping state,
    sleeping system)."""
    out = []
    for reference in (True, False):
        system = build_system(cfg_of(), gpu, "canneal", **build)
        if reference:
            all_awake(system.fabric, system.gpu_cores + system.memory_nodes)
        system.run(cycles)
        if finish is not None:
            finish(system)
        out.append(_endpoint_state(system))
    return out[0], out[1], system


def _owes_retries(system) -> bool:
    """Some core is asleep right now with skipped retries not yet counted."""
    return any(
        core.wake_at > system.cycle and core._stalled
        and core._owed_from is not None and core._owed_from < system.cycle
        for core in system.gpu_cores
    )


@pytest.mark.parametrize("flush", [0, 170], ids=["noflush", "flush170"])
@pytest.mark.parametrize("backend", ["object", "vector"])
@pytest.mark.parametrize("l1_org", list(L1Organization), ids=lambda o: o.value)
@pytest.mark.parametrize("mechanism", list(MECHANISMS))
def test_sleeping_cores_bit_identical(mechanism, l1_org, backend, flush):
    def cfg_of():
        return MECHANISMS[mechanism](l1_org=l1_org)

    ref, opt, system = _endpoint_pair(
        cfg_of, 500, backend=backend, kernel_flush_interval=flush
    )
    _assert_no_drift(ref, opt)
    assert ref["gpu.issue_stalls"] > 0
    if flush:
        assert system.kernel_flushes == 2
    # who may sleep is decided from what the core was built with
    skipped = system.scheduler_stats()["gpu_core_steps_skipped"]
    if mechanism != "rp" and l1_org is L1Organization.PRIVATE:
        assert skipped > 0.5 * 500 * len(system.gpu_cores)
    else:
        assert skipped == 0


@pytest.mark.parametrize("backend", ["object", "vector"])
def test_cores_refused_by_the_nic_sleep(backend):
    """BP's failed issues are NIC refusals: behind a two-packet request
    queue the cores sleep through them until the NIC pops the queue, so
    a missed pop wake drifts and a return to polling skips nothing."""

    def cfg_of():
        cfg = small_config()
        cfg.noc.node_injection_queue_packets = 2
        return cfg

    ref, opt, system = _endpoint_pair(cfg_of, 500, gpu="BP", backend=backend)
    _assert_no_drift(ref, opt)
    skipped = system.scheduler_stats()["gpu_core_steps_skipped"]
    assert skipped >= 0.5 * 500 * len(system.gpu_cores)


def test_counters_read_mid_sleep():
    """The run ends with cores asleep and retries owed; reading the
    counters settles them without a further step (and reading twice
    counts nothing twice)."""
    owing = []
    ref, opt, system = _endpoint_pair(
        small_config, 700, finish=lambda s: owing.append(_owes_retries(s))
    )
    assert owing == [False, True]
    _assert_no_drift(ref, opt)
    assert _endpoint_state(system) == opt


def test_quiesce_reaches_sleeping_cores():
    """``faults.quiesce`` stalls cores that may be asleep with retries
    owed: the drain conserves packets, the settled stall counts match the
    all-awake run, and the drain itself is slept through."""
    seen = []

    def finish(system):
        ran = system.scheduler_stats()["gpu_core_steps"]
        seen.append((_owes_retries(system), quiesce(system)))
        drain_steps = (system.cycle - 500) * len(system.gpu_cores)
        seen.append(system.scheduler_stats()["gpu_core_steps"] - ran < drain_steps / 2)

    ref, opt, system = _endpoint_pair(small_dr_config, 500, finish=finish)
    assert seen == [(False, 0), False, (True, 0), True]
    _assert_no_drift(ref, opt)
    assert all(len(core.mshrs) == 0 for core in system.gpu_cores)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2 ** 16),
    gpu=st.sampled_from(GPU_BENCHMARK_NAMES),
    mechanism=st.sampled_from(sorted(MECHANISMS)),
    mshrs=st.integers(2, 32),
    warps=st.integers(2, 48),
    queue=st.integers(1, 16),
    window=st.integers(50, 400),
)
# hostile corners kept pinned: tiny MSHR file and a one-packet NIC queue
# reach the NIC-full and write-cap refusals the default sizes rarely hit
@example(seed=1, gpu="BP", mechanism="baseline", mshrs=2, warps=48, queue=1, window=300)
@example(seed=7, gpu="NN", mechanism="dr", mshrs=2, warps=2, queue=2, window=400)
@example(seed=3, gpu="HS", mechanism="rp", mshrs=4, warps=16, queue=1, window=200)
def test_sleeping_cores_property(seed, gpu, mechanism, mshrs, warps, queue, window):
    """Generated differential, endpoint leg (ROADMAP correctness item)."""

    def cfg_of():
        cfg = MECHANISMS[mechanism](seed=seed)
        cfg.gpu_l1.mshrs = mshrs
        cfg.gpu_core.warps = warps
        cfg.noc.node_injection_queue_packets = queue
        return cfg

    ref, opt, _system = _endpoint_pair(cfg_of, window, gpu=gpu)
    _assert_no_drift(ref, opt)


# ---------------------------------------------------------------------------
# full telemetry: the O(1) locality oracle and the memoised blame survey
# against the scan and the chain-by-chain walk they replace
# ---------------------------------------------------------------------------


def scan_oracle(collector, cores):
    """Fig. 2's oracle as a scan: at each primary miss, does any other
    core's L1 view or MSHR file hold the block?"""
    counts = collector._locality
    holders = [(c, c.l1.contains, c.mshrs.has) for c in cores]

    def observe(core, block):
        counts[0] += 1
        for other, contains, has in holders:
            if other is not core and (contains(block) or has(block)):
                counts[1] += 1
                return

    return observe


def walked_survey(nets, cycle, max_hops=64):
    """``survey_stalls`` as a walk of every blocked chain from scratch."""
    groups = {}
    for net in nets:
        for router in net.routers:
            for ivc in router.active:
                if classify_head(ivc, cycle)[0] is None:
                    continue
                chain = walk_chain(ivc, cycle, max_hops=max_hops)
                g = groups.setdefault(
                    (chain[-1]["node"], chain[-1]["class"]),
                    {"chains": 0, "victims": {}, "max_depth": 0, "sample": chain},
                )
                g["chains"] += 1
                cls = chain[0].get("cls", "?")
                g["victims"][cls] = g["victims"].get(cls, 0) + 1
                if len(chain) > g["max_depth"]:
                    g["max_depth"] = len(chain)
                    g["sample"] = chain
    return groups


def _reply_loss_plan(cfg, p=0.05):
    """Loss only: every reply link out of a memory node drops flits."""
    layout = build_layout(cfg)
    topology = build_topology(cfg.noc.topology, cfg.mesh_width, cfg.mesh_height)
    return FaultPlan(events=[
        FlitDrop(at=0, a=mem, b=nb, p=p, net="reply")
        for mem in layout.mem_nodes for nb in topology.neighbors(mem)
    ], seed=5)


@pytest.mark.parametrize("l1_org", list(L1Organization), ids=lambda o: o.value)
def test_full_telemetry_under_loss_bit_identical(l1_org, monkeypatch):
    """DR, full telemetry, a loss-only fault plan: sleeping cores and
    memory nodes, the holder-count oracle and the memoised survey leave
    what the all-awake run with the scan and the walk leaves — the
    result, the stall breakdown, the locality counts and every episode's
    root cause.  A one-set L1 evicts all the time, and DynEB ports sample
    early, so they go private mid-run."""

    def run(reference):
        cfg = small_dr_config(l1_org=l1_org)
        cfg.gpu_l1.size_bytes = 4096  # one set once scaled
        cfg.telemetry.enabled = True
        cfg.telemetry.mode = "full"
        cfg.telemetry.probe_interval = 40
        system = build_system(cfg, "SC", "canneal", faults=_reply_loss_plan(cfg))
        for core in system.gpu_cores:
            if l1_org is L1Organization.DYNEB:
                core.l1.sample_cycles = 150
        tel = system.telemetry
        if reference:
            all_awake(system.fabric, system.gpu_cores + system.memory_nodes)
            observe = scan_oracle(tel, system.gpu_cores)
            for core in system.gpu_cores:
                core.miss_observer = observe
            monkeypatch.setattr(collector_module, "survey_stalls", walked_survey)
        result = run_simulation(
            cfg, "SC", "canneal", cycles=450, warmup=150, system=system
        )
        monkeypatch.undo()
        locality = tuple(tel.metrics_snapshot()[f"locality.{k}"]
                         for k in ("misses", "remote"))
        causes = [ep.get("root_cause") for ep in tel.detector.episodes]
        return result, locality, causes, system

    opt, opt_locality, opt_causes, system = run(False)
    ref, ref_locality, ref_causes, _ = run(True)
    assert opt.to_dict() == ref.to_dict()
    assert opt.stall_breakdown == ref.stall_breakdown
    assert opt_locality == ref_locality and ref_locality[1] > 0
    assert opt_causes == ref_causes and any(ref_causes)
    assert opt.counters["fault.drops"] > 0
    assert system.scheduler_stats()["mem_node_steps_skipped"] > 0
    if l1_org is L1Organization.DYNEB:
        assert any(core.l1.mode == "private" for core in system.gpu_cores)


@pytest.mark.parametrize("max_hops", [64, 4, 1])
def test_memoised_survey_equals_the_walk(max_hops):
    """Every probe-time survey of a clogged run, including the plain
    walks past ``max_hops``, equals walking each chain from scratch."""
    cfg = small_config()
    system = build_system(cfg, "SC", "bodytrack")
    surveys = 0
    for _ in range(12):
        system.run(60)
        nets, cycle = system.fabric._net_list, system.cycle
        ref = walked_survey(nets, cycle, max_hops)
        assert list(survey_stalls(nets, cycle, max_hops).items()) == \
            list(ref.items())
        surveys += bool(ref)
    assert surveys >= 10
