"""Bit-identity matrix: ``backend="vector"`` vs ``backend="object"``.

Both kernels implement the one per-cycle NoC contract (DESIGN.md,
"Per-cycle NoC contract"); the object kernel is the readable oracle, the
vector kernel the fast one.  Every test here drives the *identical*
pre-generated packet schedule (``repro.bench``) through both fabrics and
asserts every observable counter — delivered packets/flits per network,
per-type delivery counts, per-router routed/buffered flits, per-link flit counts, per-NIC injection/ejection counters, delegation
counters and the full latency multiset — is bit-identical.
"""

from __future__ import annotations

import pytest

from repro.bench import Lcg, hotspot_schedule, replay, uniform_schedule
from repro.config.system import DelegationConfig, NocConfig
from repro.noc import MeshTopology, MessageType, NocFabric, Packet, TrafficClass
from repro.noc import nic as nic_module
from repro.noc.packet import NetKind
from repro.noc.router import LOCAL_PORT
from repro.sim.engines import BackendError, build_fabric
from repro.sim.vector.fabric import VectorFabric
from repro.telemetry.blame import classify_head

from conftest import assert_fabric_invariants

# ---------------------------------------------------------------------------
# drivers + counter collection
# ---------------------------------------------------------------------------


def _drive(fabric, sched, latencies):
    """Replay a schedule; record delivery latencies via the NIC handlers."""

    def on_deliver(pkt, cycle):
        latencies.append((cycle - pkt.created, pkt.size_flits, int(pkt.mtype)))

    for nic in fabric.nics:
        nic.handler = on_deliver
    check = None
    if isinstance(fabric, NocFabric):
        check = lambda cycle: cycle % 50 or assert_fabric_invariants(fabric)
    replay(fabric, sched, on_cycle=check)
    return len(sched)


def _collect(fabric) -> dict:
    """Every observable counter, via backend-neutral explicit reads."""
    out: dict = {}
    nets = {id(net): net for net in (fabric.request_net, fabric.reply_net)}
    for i, net in enumerate(nets.values()):
        out[f"net{i}.cycles"] = net.cycles
        out[f"net{i}.packets_delivered"] = net.packets_delivered
        out[f"net{i}.flits_delivered"] = net.flits_delivered
        out[f"net{i}.delivered_by_type"] = dict(net.delivered_by_type)
        out[f"net{i}.total_routed"] = net.total_flits_routed()
        out[f"net{i}.flits_routed"] = [r.flits_routed for r in net.routers]
        out[f"net{i}.buffered"] = [r.buffered_flits() for r in net.routers]
        out[f"net{i}.link_flits"] = [list(row) for row in net.link_flits]
    for nic in fabric.nics:
        nid = nic.node_id
        out[f"nic{nid}.flits_injected"] = nic.flits_injected
        for kind in (NetKind.REQUEST, NetKind.REPLY):
            out[f"nic{nid}.injected_{int(kind)}"] = nic.flits_injected_net[kind]
            out[f"nic{nid}.sent_{int(kind)}"] = nic.packets_sent_net[kind]
        for cls in (TrafficClass.CPU, TrafficClass.GPU):
            out[f"nic{nid}.received_{int(cls)}"] = nic.flits_received[cls]
        out[f"nic{nid}.data_flits"] = nic.data_flits_received
        if hasattr(nic, "delegations"):
            out[f"nic{nid}.delegations"] = nic.delegations
            out[f"nic{nid}.blocked"] = nic.blocked_cycles
    out["in_flight"] = fabric.in_flight_flits()
    return out


def _run_backend(backend, dims, cfg, sched, mem_nodes=(), delegation=False):
    topo = MeshTopology(*dims)
    if backend == "object":
        fabric = NocFabric(topo, cfg, mem_nodes=tuple(mem_nodes))
    else:
        fabric = VectorFabric(topo, cfg, mem_nodes=tuple(mem_nodes))
    if delegation:
        for m in mem_nodes:
            fabric.nic(m).set_delegation(DelegationConfig())
    latencies: list = []
    _drive(fabric, sched, latencies)
    counters = _collect(fabric)
    counters["latency_multiset"] = sorted(latencies)
    return counters


def _assert_identical(ref: dict, got: dict) -> None:
    diffs = {k: (ref[k], got.get(k)) for k in ref if got.get(k) != ref[k]}
    assert not diffs, f"vector backend drifted from the oracle: {diffs}"


# ---------------------------------------------------------------------------
# the bit-identity matrix
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dims", [(4, 4), (8, 8)])
@pytest.mark.parametrize("permille,cycles", [(5, 900), (250, 500)])
def test_uniform_bit_identical(dims, permille, cycles):
    """mesh4x4/mesh8x8 x light-load/saturated uniform traffic."""
    n = dims[0] * dims[1]
    sched = uniform_schedule(n, cycles, permille, seed=dims[0] * permille)
    cfg = NocConfig()
    ref = _run_backend("object", dims, cfg, sched)
    got = _run_backend("vector", dims, cfg, sched)
    _assert_identical(ref, got)


@pytest.mark.parametrize("dims,mem_nodes", [
    ((4, 4), (3, 7, 11, 15)),
    ((8, 8), (7, 15, 23, 31, 39, 47, 55, 63)),
])
@pytest.mark.parametrize("permille", [40, 200])
def test_delegation_bit_identical(dims, mem_nodes, permille):
    """Hotspot + Delegated Replies: the memory-node path (memory lanes of
    the vector kernel's batch) stays bit-identical, including the
    delegation/blocked/observed counters."""
    n = dims[0] * dims[1]
    sched = hotspot_schedule(n, mem_nodes, 600, permille, seed=permille)
    cfg = NocConfig()
    ref = _run_backend("object", dims, cfg, sched,
                       mem_nodes=mem_nodes, delegation=True)
    got = _run_backend("vector", dims, cfg, sched,
                       mem_nodes=mem_nodes, delegation=True)
    _assert_identical(ref, got)


@pytest.mark.parametrize("noc_kw", [
    {},                                      # one batch, one pass
    {"bandwidth_factor": 2.0},               # several starts per lane
    {"separate_physical_networks": False},   # parity order, shared budget
    {"bandwidth_factor": 3.0},
    {"separate_physical_networks": False, "bandwidth_factor": 2.0},
], ids=["fused", "bw2", "shared", "bw3", "shared-bw2"])
@pytest.mark.parametrize("cpu_permille", [0, 300])
def test_memory_lanes_bit_identical(noc_kw, cpu_permille):
    """Every bandwidth / network organisation the one injection step
    carries memory lanes through, with and without
    5-flit CPU replies competing for the reply buffer's head: the CPU-first
    order, the 36-flit admission rule, the delegation trigger and the
    blocked-cycle rows equal the object NIC's."""
    mem_nodes = (7, 15, 23, 31, 39, 47, 55, 63)
    sched = hotspot_schedule(64, mem_nodes, 600, 200, seed=17,
                             cpu_permille=cpu_permille)
    cfg = NocConfig(**noc_kw)
    ref = _run_backend("object", (8, 8), cfg, sched,
                       mem_nodes=mem_nodes, delegation=True)
    got = _run_backend("vector", (8, 8), cfg, sched,
                       mem_nodes=mem_nodes, delegation=True)
    _assert_identical(ref, got)
    assert sum(ref[f"nic{m}.delegations"] for m in mem_nodes) > 20
    if cpu_permille:
        # undelegatable replies let the buffer fill: blocked cycles exist
        assert sum(ref[f"nic{m}.blocked"] for m in mem_nodes) > 0
        # CPU replies overtook queued GPU ones: their median latency is
        # far below the GPU replies' on the same clogged links
        lat = {size: sorted(l for l, sz, _ in ref["latency_multiset"]
                            if sz == size) for size in (5, 9)}
        assert lat[5][len(lat[5]) // 2] < lat[9][len(lat[9]) // 2]


@pytest.mark.parametrize("backend", ["object", "vector"])
def test_delegation_counts_agree_when_request_queue_is_full(backend, monkeypatch):
    """The scan builds a delegated packet only when the request queue can
    take it: with a one-packet queue every delegation the NICs count is
    one request they queued (the count used to run ahead by one per
    refused cycle)."""
    mem_nodes = (3, 7, 11, 15)
    sched = hotspot_schedule(16, mem_nodes, 600, 200, seed=5)
    fabric = build_fabric(
        backend, MeshTopology(4, 4),
        NocConfig(node_injection_queue_packets=1), mem_nodes=mem_nodes,
    )
    for m in mem_nodes:
        fabric.nic(m).set_delegation(DelegationConfig())
    made = []
    real_packet = nic_module.Packet

    def counted(*args, **kwargs):
        made.append(real_packet(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(nic_module, "Packet", counted)
    replay(fabric, sched)
    done = sum(fabric.nic(m).delegations for m in mem_nodes)
    assert done > 20
    # memory NICs send no request of their own: their requests are the
    # delegations, and each one the scan built was queued
    assert len(made) == done == sum(
        fabric.nic(m).packets_sent_net[NetKind.REQUEST] for m in mem_nodes
    )


def test_shared_network_bit_identical():
    """Single shared physical network with split VC ranges."""
    cfg = NocConfig(separate_physical_networks=False)
    sched = uniform_schedule(64, 700, 60, seed=3)
    ref = _run_backend("object", (8, 8), cfg, sched)
    got = _run_backend("vector", (8, 8), cfg, sched)
    _assert_identical(ref, got)


def test_randomized_configs_bit_identical():
    """Property-style case: random NoC shape parameters, both backends."""
    rng = Lcg(99)
    for trial in range(4):
        cfg = NocConfig(
            vcs_per_port=1 + rng.below(3),
            vc_depth_flits=2 + rng.below(6),
            router_pipeline_cycles=1 + rng.below(4),
            link_cycles=1 + rng.below(2),
            node_injection_queue_packets=2 + rng.below(14),
            separate_physical_networks=bool(rng.next() & 1),
            request_vcs=1 + rng.below(2),
            reply_vcs=1 + rng.below(2),
            bandwidth_factor=float(1 + rng.below(3)),
        )
        dims = (3 + rng.below(3), 3 + rng.below(3))
        permille = 20 + rng.below(300)
        sched = uniform_schedule(
            dims[0] * dims[1], 400, permille, seed=trial
        )
        ref = _run_backend("object", dims, cfg, sched)
        got = _run_backend("vector", dims, cfg, sched)
        _assert_identical(ref, got)


# ---------------------------------------------------------------------------
# injection start rules (DESIGN.md §6.1 step 2), both kernels
# ---------------------------------------------------------------------------


def _local_occupancy(fabric, node, kind=NetKind.REQUEST):
    """Flits buffered per VC of ``node``'s local input port on ``kind``."""
    if isinstance(fabric, NocFabric):
        return [v.occ for v in fabric.nic(node).rows[kind].router.inputs[LOCAL_PORT]]
    K = fabric.kernel
    row = (int(kind) if K.separate else 0) * K.n + node
    return K.occ.reshape(K.R, K.P, K.V)[row, LOCAL_PORT].tolist()


def _request(src, dst, size):
    return Packet(src, dst, MessageType.READ_REQ, TrafficClass.GPU, size)


@pytest.mark.parametrize("backend", ["object", "vector"])
def test_single_flit_packets_share_a_vc_within_a_cycle(backend):
    """A VC that just took a whole single-flit packet is free again: at
    bandwidth 2 both queued requests enter VC 0 in one cycle (the k-th
    start does not take the k-th free VC)."""
    fabric = build_fabric(backend, MeshTopology(4, 4),
                          NocConfig(bandwidth_factor=2.0))
    first, second = _request(0, 5, 1), _request(0, 10, 1)
    assert fabric.nic(0).try_send(first, 0)
    assert fabric.nic(0).try_send(second, 0)
    fabric.step(0)
    assert first.injected == second.injected == 0
    assert _local_occupancy(fabric, 0) == [2, 0]


@pytest.mark.parametrize("backend", ["object", "vector"])
def test_tail_frees_its_vc_for_a_start_in_the_same_cycle(backend):
    """A worm started this cycle pushes only its header; the cycle its tail
    is pushed, the next queued packet starts on the VC it released."""
    fabric = build_fabric(backend, MeshTopology(4, 4),
                          NocConfig(bandwidth_factor=2.0))
    worm, follower = _request(0, 5, 2), _request(0, 10, 1)
    assert fabric.nic(0).try_send(worm, 0)
    fabric.step(0)
    assert _local_occupancy(fabric, 0) == [1, 0]  # header only, budget 2
    assert fabric.nic(0).try_send(follower, 1)
    fabric.step(1)
    assert follower.injected == 1
    assert _local_occupancy(fabric, 0) == [3, 0]


@pytest.mark.parametrize("backend", ["object", "vector"])
def test_in_flight_worms_inject_lowest_vc_first(backend):
    """Four 9-flit requests to one output at bandwidth 2 over 3 VCs: A
    and B start on VCs 0 and 1, C on VC 2 once they fill, and D on VC 0
    after A's tail.  At cycle 13 B, C and D all have credit and the budget
    is 2: VCs 0 and 1 push, although D was allocated last (a continuing
    worm's turn follows its VC, not its start order)."""
    fabric = build_fabric(backend, MeshTopology(4, 4),
                          NocConfig(bandwidth_factor=2.0, vcs_per_port=3))
    worms = [_request(0, 5, 9) for _ in range(4)]
    for worm in worms:
        assert fabric.nic(0).try_send(worm, 0)
    occupancy = []
    for cycle in range(14):
        fabric.step(cycle)
        occupancy.append(_local_occupancy(fabric, 0))
    assert [w.injected for w in worms] == [0, 0, 4, 9]
    assert occupancy[12] == [4, 4, 3]
    assert occupancy[13] == [4, 4, 3]  # not [3, 4, 4]


def test_two_headers_allocate_one_downstream_vc():
    """Two worms become ready in router 5 in the same cycle and both route
    to its one VC towards router 9: both allocate it before either header
    moves (on the object kernel both ``InputVC.out`` are that one record),
    the older takes the switch and with it the write lock, and the younger
    stalls on VC allocation until the older's tail has passed — so the
    worms never interleave and arrive at least a worm's length apart, at
    the same cycles on both kernels."""
    size = 5
    offer = [[(src, 13, MessageType.READ_REPLY, TrafficClass.GPU, size, None)
              for src in (4, 6)]] + [[]] * 40
    arrivals = {}
    for backend in ("object", "vector"):
        fabric = build_fabric(backend, MeshTopology(4, 4),
                              NocConfig(vcs_per_port=1))
        got = arrivals[backend] = []
        fabric.nic(13).handler = lambda pkt, cycle: got.append((pkt.src, cycle))
        shared, verdicts = [], set()

        def watch(cycle):
            # router 5's input VCs fed by node 4 (port 2) and node 6 (port 3)
            older, younger = (fabric.reply_net.routers[5].inputs[port][0]
                              for port in (2, 3))
            if older.out is not None and older.out is younger.out:
                shared.append(cycle)
                assert younger.sent == 0
                verdicts.add(classify_head(younger, cycle + 1)[0])

        replay(fabric, offer,
               on_cycle=watch if isinstance(fabric, NocFabric) else None)
        if isinstance(fabric, NocFabric):
            assert len(shared) >= size  # from the allocation to the tail
            assert "vc_alloc" in verdicts
            assert verdicts <= {"vc_alloc", "credit"}  # a full VC reads credit
            assert_fabric_invariants(fabric)
    (first, t_first), (second, t_second) = arrivals["object"]
    assert (first, second) == (4, 6)
    assert t_second - t_first >= size
    assert arrivals["vector"] == arrivals["object"]


def test_packet_table_growth_bit_identical():
    """More packets in flight than the packet table was built for: the
    table doubles mid-run and every counter still equals the oracle's."""
    rng = Lcg(5)
    sched = []
    for _ in range(120):
        cyc = []
        for _ in range(300):
            src = rng.below(256)
            dst = rng.below(255)
            cyc.append((src, dst + (dst >= src), MessageType.READ_REQ,
                        TrafficClass.GPU, 1, None))
        sched.append(cyc)
    cfg = NocConfig(node_injection_queue_packets=64, vc_depth_flits=8,
                    vcs_per_port=4)
    counters = {}
    for backend in ("object", "vector"):
        fabric = build_fabric(backend, MeshTopology(16, 16), cfg)
        latencies: list = []
        _drive(fabric, sched, latencies)
        counters[backend] = _collect(fabric)
        counters[backend]["latency_multiset"] = sorted(latencies)
    _assert_identical(counters["object"], counters["vector"])
    assert len(fabric.kernel.pk_obj) > 4096


# ---------------------------------------------------------------------------
# conservation + error surfaces
# ---------------------------------------------------------------------------


def test_vector_packet_conservation():
    """After draining, every injected flit was delivered (vector backend)."""
    mem_nodes = (3, 7, 11, 15)
    sched = hotspot_schedule(16, mem_nodes, 800, 200, seed=11)
    fabric = VectorFabric(MeshTopology(4, 4), NocConfig(),
                          mem_nodes=mem_nodes)
    for m in mem_nodes:
        fabric.nic(m).set_delegation(DelegationConfig())
    latencies: list = []
    cycles = _drive(fabric, sched, latencies)
    assert sum(fabric.nic(m).delegations for m in mem_nodes) > 50
    # drain: no new injections, step until empty
    for cycle in range(cycles, cycles + 6000):
        fabric.step(cycle)
        if fabric.in_flight_flits() == 0 and all(
            not fabric.kernel.queues[k][node]
            for k in (0, 1) for node in range(16)
        ) and (fabric.kernel.infl_pkt < 0).all():
            break
    else:
        raise AssertionError("vector fabric failed to drain")
    nets = {id(net): net for net in (fabric.request_net, fabric.reply_net)}
    delivered_pkts = sum(n.packets_delivered for n in nets.values())
    delivered_flits = sum(n.flits_delivered for n in nets.values())
    sent_pkts = sum(
        nic.packets_sent_net[NetKind.REQUEST]
        + nic.packets_sent_net[NetKind.REPLY]
        for nic in fabric.nics
    )
    injected_flits = sum(nic.flits_injected for nic in fabric.nics)
    assert delivered_pkts == sent_pkts
    assert delivered_flits == injected_flits
    # the packet table fully recycled: nothing leaked
    assert all(obj is None for obj in fabric.kernel.pk_obj)
    # memory nodes are lanes of the same batch: their queues are the
    # kernel's, their in-flight rows and reply buffers drained with it
    for m in mem_nodes:
        nic = fabric.nic(m)
        assert nic.flits_injected_net[NetKind.REPLY] > 0
        for kind in (NetKind.REQUEST, NetKind.REPLY):
            assert nic.queues[kind] is fabric.kernel.queues[kind][m]
        assert (fabric.kernel.infl_pkt[:, m] < 0).all()
        assert nic._reply_occ == 0


def test_vector_rejects_adaptive_routing():
    from repro.config.system import RoutingPolicy

    cfg = NocConfig(routing=RoutingPolicy.FOOTPRINT)
    with pytest.raises(BackendError) as exc:
        build_fabric("vector", MeshTopology(4, 4), cfg)
    msg = str(exc.value)
    assert "adaptive" in msg and "\n" not in msg


def test_vector_rejects_telemetry_attach():
    fabric = build_fabric("vector", MeshTopology(4, 4), NocConfig())
    with pytest.raises(BackendError) as exc:
        fabric.attach_telemetry(object())
    assert "telemetry" in str(exc.value)


# ----------------------------------------------------------------------
# full-system bit-identity: HeterogeneousSystem on the vector backend vs
# the object backend
# ----------------------------------------------------------------------


def _system_result(cfg, backend, *, faults=None, cycles=400, warmup=150):
    from repro.sim.simulator import build_system, run_simulation

    if backend == "object":
        system = build_system(cfg, "BP", "canneal", faults=faults)
    else:
        system = build_system(
            cfg, "BP", "canneal", faults=faults, backend="vector"
        )
    return run_simulation(
        cfg, "BP", "canneal", cycles=cycles, warmup=warmup, system=system
    )


@pytest.mark.parametrize(
    "mk_cfg", ["small_config", "small_dr_config", "small_rp_config"]
)
def test_system_bit_identical(mk_cfg):
    import conftest

    cfg_fn = getattr(conftest, mk_cfg)
    obj = _system_result(cfg_fn(), "object")
    vec = _system_result(cfg_fn(), "vector")
    assert vec.counters == obj.counters
    assert vec.to_dict() == obj.to_dict()


@pytest.mark.parametrize("field,value", [
    ("bandwidth_factor", 2.0),
    ("separate_physical_networks", False),
    ("channel_width_bytes", 8),
], ids=["bw2", "shared", "8B"])
def test_system_bit_identical_noc_variants(field, value):
    """The memory lanes at 2x bandwidth, on a shared network and at a
    channel width where a GPU reply is 17 flits, full system, DR on."""
    import conftest

    def cfg():
        c = conftest.small_dr_config()
        setattr(c.noc, field, value)
        return c

    obj = _system_result(cfg(), "object")
    vec = _system_result(cfg(), "vector")
    assert obj.counters["mem.delegations"] > 0
    assert vec.counters == obj.counters
    assert vec.to_dict() == obj.to_dict()


def test_system_bit_identical_loss_plan():
    import conftest
    from repro.faults.plan import chaos_plan

    cfg = conftest.small_dr_config()
    plan = chaos_plan(cfg, 0.08, seed=3, warmup=150, cycles=400,
                      link_down=False)
    obj = _system_result(cfg, "object", faults=plan)
    vec = _system_result(cfg, "vector", faults=plan)
    assert obj.counters.get("fault.drops", 0) > 0
    assert vec.counters == obj.counters
    assert vec.to_dict() == obj.to_dict()


def _draw_system(rng):
    """One full-system design point drawn from fields both kernels
    support (``engines.OBJECT_ONLY`` lists the rest): mesh 3x3 to 6x6
    and its node mix; VCs, buffer depth, router pipeline and bandwidth
    1-3; shared or separate networks; mechanism; GPU benchmark; seed."""
    from repro.config import mechanism_config
    from repro.workloads.gpu import GPU_BENCHMARK_NAMES

    width, height = 3 + rng.below(4), 3 + rng.below(4)
    nodes = width * height
    n_mem = 1 + rng.below(max(1, nodes // 8))
    n_cpu = 1 + rng.below(nodes // 4)
    cfg = mechanism_config(
        ("baseline", "dr", "rp")[rng.below(3)],
        mesh_width=width, mesh_height=height,
        n_gpu=nodes - n_cpu - n_mem, n_cpu=n_cpu, n_mem=n_mem,
        seed=rng.below(1 << 16),
    )
    noc = cfg.noc
    noc.separate_physical_networks = bool(rng.next() & 1)
    noc.vcs_per_port = 1 + rng.below(3)
    noc.request_vcs = 1 + rng.below(3)
    noc.reply_vcs = 1 + rng.below(3)
    noc.vc_depth_flits = 1 + rng.below(3)
    noc.router_pipeline_cycles = 1 + rng.below(3)
    noc.bandwidth_factor = float(1 + rng.below(3))
    gpu = GPU_BENCHMARK_NAMES[rng.below(len(GPU_BENCHMARK_NAMES))]
    return cfg.validate(), gpu


def test_randomized_systems_bit_identical():
    """Full-system sibling of ``test_randomized_configs_bit_identical``:
    each drawn design point runs three ways — the object kernel with
    ``assert_fabric_invariants`` after every cycle, the object kernel
    with nothing asleep (``conftest.all_awake``) and the vector kernel —
    and the results are equal key for key (8 draws, ~11 s)."""
    from repro.sim.simulator import build_system, run_simulation

    from conftest import all_awake

    rng = Lcg(7)
    bandwidths = set()
    for _ in range(8):
        cfg, gpu = _draw_system(rng)
        bandwidths.add(cfg.noc.link_flits_per_cycle)
        results = []
        for backend, awake in (("object", False), ("object", True),
                               ("vector", False)):
            system = build_system(cfg, gpu, "canneal", backend=backend)
            if awake:
                all_awake(system.fabric, system.gpu_cores)
            elif backend == "object":
                fabric, step = system.fabric, system.fabric.step

                def checked(cycle, fabric=fabric, step=step):
                    step(cycle)
                    assert_fabric_invariants(fabric)

                fabric.step = checked
            results.append(run_simulation(
                cfg, gpu, "canneal", cycles=500, warmup=200, system=system
            ).to_dict())
        assert results[0] == results[1] == results[2], (cfg.to_dict(), gpu)
    assert 2 in bandwidths
