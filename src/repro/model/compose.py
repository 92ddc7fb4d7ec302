"""Closed-loop composition: endpoint rates, link waits, latency estimates.

The simulator's steady state is *closed-loop*: GPU warps block on their
own read misses and each L1 has a finite MSHR pool, so once any resource
saturates the cores self-throttle and offered load equals carried load.
An open queueing network (rates in, waits out) diverges exactly where
the interesting behaviour lives, so the surrogate solves a damped fixed
point instead:

1. endpoint *demand* rates from the current round-trip latencies
   (warp-pool / MSHR / outstanding-miss Little's-law caps included);
2. per-link offered load via :class:`~repro.model.loads.NetworkModel`;
3. a single throughput scale factor for the GPU class so no link — nor
   the LLC lookup port or DRAM bus behind it — exceeds ``RHO_CAP``
   (CPU traffic is never scaled: the fabric gives it priority);
4. per-link M/G/1 priority waits plus a finite-buffer memory-node
   sojourn (LLC input queue, LLC/DRAM service, reply-drain
   head-of-line), composed along each flow's route;
5. new round-trip latencies, damped back into step 1.

When the network is the binding constraint the loop converges to the
paper's clogging regime: latency is set by Little's law over the
endpoint pools, CPU latency by the FIFO LLC input queue it shares with
the GPU flood, and Delegated Replies help exactly as far as they thin
the memory nodes' reply injection links.

Calibration constants below were fitted once against the simulator's
mechanism sweep (see ``tests/test_model_validation.py`` and DESIGN.md
section 10); they are deliberately few and global — per-benchmark
fudge factors would defeat the point of a predictive model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.config.system import SystemConfig
from repro.gpu.core import _WRITE_CAP as GPU_WRITE_CAP
from repro.model.loads import FlowGroup, LinkKey, NetworkModel
from repro.model.queueing import cpu_gpu_waits, p95_of_mean
from repro.noc.packet import NetKind, TrafficClass
from repro.workloads.cpu import cpu_benchmark
from repro.workloads.gpu import gpu_benchmark

# --- calibration constants (fitted once, global) -------------------------

#: GPU L1 hit rate ~ p_reuse ** K: reuse must survive K generations of
#: wavefront churn / capacity pressure before the line is re-touched.
K_GPU_REUSE = 3.3
#: CPU L1 misses slightly below (1 - p_reuse): the reuse window catches
#: a sliver of the "new" accesses too.
CPU_MISS_SCALE = 0.95
#: utilisation ceiling a wormhole link sustains before flow control
#: rounds off the top; the simulator's memory reply injection links
#: plateau at 0.85-0.89 across the saturated mesh8x8 baseline workloads
#: (``SimulationResult.mem_reply_link_utilization``, DESIGN.md §6.1 order).
RHO_CAP = 0.87
#: fraction of shared-region read misses whose LLC core pointer is live
#: enough to delegate; thinned by wavefront lag (remote misses).
K_DELEG = 0.55
K_DELEG_LAG = 0.5
#: probability an RP probe of ``probe_width`` neighbours finds the line.
K_PROBE_HIT = 0.45
#: LLC miss rate grows with how far the workload's footprint overflows
#: the aggregate LLC: miss = clip(BASE + FOOT * footprint/capacity).
#: (BT and MM touch ~2x the LLC; LUD and SC fit almost entirely.)
LLC_MISS_BASE = 0.10
LLC_MISS_FOOT = 0.20
LLC_MISS_MIN, LLC_MISS_MAX = 0.05, 0.90
#: bounded LLC result queue depth (LlcSlice default, not in LlcConfig).
LLC_OUTPUT_CAPACITY = 8
#: fraction of DRAM accesses that open a new row.
ROW_MISS = 0.35
#: cap on the M/G/1 wait charged per in-network link: VC buffers bound
#: the real queue; excess backlog surfaces as endpoint throttling.
LINK_WAIT_CAP = 30.0
#: request-packet slack in the routers/NIC feeding a memory node, on
#: top of the LLC queues — part of the node's backlog inventory.
MEM_ROUTER_SLACK_PKTS = 8.0
#: at most this many requests charged as fabric queueing upstream of a
#: full LLC input queue (deeper backlog parks at the sources instead).
#: The charge is further bounded by the buffering that physically exists
#: on the approach path: one input port's VC buffers per router hop
#: between the source and the memory router (the memory router's own
#: port is ``MEM_ROUTER_SLACK_PKTS``).  On a big mesh the path holds
#: more than this cap and the constant binds; on a 4x4 mesh or a
#: crossbar the one- or two-hop approach simply cannot park 24 requests
#: in front of a CPU arrival — the excess waits at the sources, where it
#: delays nobody else.
UPSTREAM_PKTS_MAX = 24.0
#: blocking-rate shape: blocking = (B/I) / (B/I + this).
BLOCKING_KNEE = 0.35
#: wormhole FIFO sharing: on request-net links that carry *both* CPU and
#: GPU requests, a CPU packet queues behind the GPU backlog parked in the
#: same input VCs — switch-allocation priority cannot overtake within a
#: FIFO.  Mesh (YX requests approach memory from the CPU-free side),
#: crossbar and flattened butterfly keep the classes on disjoint links
#: (overlap 0); Dragonfly funnels both through the same gateways.  The
#: constant scales parked-backlog packets into waiting cycles per shared
#: hop of the CPU route.
K_FIFO_MIX = 1.2
FIFO_PKTS_MAX = 24.0
#: a bounded queue whose arrival rate sits *at* its drain capacity hovers
#: around this occupancy fraction even with no excess demand parked
#: upstream (write-capped workloads run the reply link at the plateau
#: while their read backlog stays shallow); the sharp power keeps the
#: term negligible away from the knee.
CRIT_OCC_FRAC = 0.5
CRIT_OCC_POW = 8.0
#: demand depth (rate_free / rate_cap) at which the hover term reaches
#: full strength.  A point sitting *at* the knee (depth ~1) keeps its
#: queue shallow — arrivals barely outpace the drain — while a deeply
#: oversubscribed point pegs the buffer; ramping between the two keeps
#: lightly-clogged points (NN under Delegated Replies, depth ~1.1) from
#: being charged the full pegged-queue occupancy.
CRIT_OCC_RAMP = 2.0
MAX_ITERS = 40
DAMP = 0.5
_EPS = 1e-9


@dataclass
class Prediction:
    """Surrogate output for one (config, gpu, cpu) point.

    Field names deliberately mirror :class:`SimulationResult` so the
    validation harness and screening can compare them generically.
    """

    gpu: str
    cpu: str
    mechanism: str
    cpu_latency_avg: float = 0.0
    cpu_latency_p95: float = 0.0
    gpu_latency_avg: float = 0.0      # full round trip, request to fill
    gpu_latency_p95: float = 0.0
    gpu_reply_latency: float = 0.0    # reply-net traversal only (sim metric)
    gpu_ipc: float = 0.0
    cpu_ipc: float = 0.0
    delegated_fraction: float = 0.0
    mem_blocking_rate: float = 0.0
    #: highest carried per-link utilisation (post-throttling, <= RHO_CAP)
    max_rho: float = 0.0
    #: highest *demand* utilisation had nothing throttled — the screening
    #: score: > 1 means the point operates in the clogged regime.
    demand_rho: float = 0.0
    bottleneck: str = ""
    saturated: bool = False
    iterations: int = 0
    #: per-link carried utilisation, formatted key -> rho (hot links only)
    link_rho: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        d = {
            k: getattr(self, k)
            for k in (
                "gpu", "cpu", "mechanism", "cpu_latency_avg",
                "cpu_latency_p95", "gpu_latency_avg", "gpu_latency_p95",
                "gpu_reply_latency", "gpu_ipc", "cpu_ipc",
                "delegated_fraction", "mem_blocking_rate", "max_rho",
                "demand_rho", "bottleneck", "saturated", "iterations",
            )
        }
        d["link_rho"] = dict(self.link_rho)
        return d


def link_name(link: LinkKey) -> str:
    kind = link[0]
    net = "req" if link[1] == 0 else "rep"
    if kind == "link":
        return f"{net}:{link[2]}->{link[3]}"
    return f"{net}:{kind}@{link[2]}"


#: flattened routing: the union of every group's touched links, per group
#: the sparse ``[(link_index, traversal_count), ...]`` vector, and the
#: expected number of request-net hops a CPU request shares with the GPU
#: request flood (the ``K_FIFO_MIX`` overlap).
FlatIndex = Tuple[List[LinkKey], Dict[str, List[Tuple[int, float]]], float]

#: (config_hash, has_cpu) -> (NetworkModel, flow groups, flat index).
#: Route walking dominates a cold prediction (~100ms on mesh8x8 from the
#: all-pairs GPU-to-GPU groups); grids re-predict the same few configs,
#: so this cache is what keeps the per-point budget in milliseconds.
_MODEL_CACHE: Dict[
    Tuple[str, bool], Tuple[NetworkModel, Dict[str, FlowGroup], FlatIndex]
] = {}
_MODEL_CACHE_MAX = 64


def _network_and_groups(
    cfg: SystemConfig, has_cpu: bool
) -> Tuple[NetworkModel, Dict[str, FlowGroup], FlatIndex]:
    key = (cfg.config_hash(), has_cpu)
    hit = _MODEL_CACHE.get(key)
    if hit is not None:
        return hit

    net = NetworkModel(cfg)
    pl = net.placement
    f_req = 1
    f_gpu_rep = cfg.noc.flits_for(cfg.gpu_l1.line_bytes)
    f_cpu_rep = cfg.noc.flits_for(cfg.cpu_l1.line_bytes)
    f_wreq = cfg.noc.flits_for(cfg.gpu_l1.line_bytes)  # write-through data

    gm = net.uniform_pairs(pl.gpu_nodes, pl.mem_nodes)
    mg = net.uniform_pairs(pl.mem_nodes, pl.gpu_nodes)
    REQ, REP = NetKind.REQUEST, NetKind.REPLY
    CPU, GPU = TrafficClass.CPU, TrafficClass.GPU

    groups: Dict[str, FlowGroup] = {}

    def mk(name, pairs, cls, netk, flits):
        groups[name] = net.flow_group(name, pairs, cls, netk, flits)

    mk("gpu_req", gm, GPU, REQ, f_req)
    mk("gpu_wreq", gm, GPU, REQ, f_wreq)
    mk("gpu_rep", mg, GPU, REP, f_gpu_rep)
    mk("gpu_wack", mg, GPU, REP, 1)
    if has_cpu:
        cm = net.uniform_pairs(pl.cpu_nodes, pl.mem_nodes)
        mc = net.uniform_pairs(pl.mem_nodes, pl.cpu_nodes)
        mk("cpu_req", cm, CPU, REQ, f_req)
        mk("cpu_rep", mc, CPU, REP, f_cpu_rep)
    if cfg.delegation_active or cfg.probing_active:
        gg = net.uniform_pairs(pl.gpu_nodes, pl.gpu_nodes)
        if cfg.delegation_active:
            mk("dreq", mg, GPU, REQ, f_req)
            mk("c2c", gg, GPU, REP, f_gpu_rep)
        if cfg.probing_active:
            mk("probe", gg, GPU, REQ, f_req)
            mk("nack", gg, GPU, REP, 1)
            mk("c2c_rp", gg, GPU, REP, f_gpu_rep)

    # flatten: assign every touched link a dense index and reduce each
    # group's counts dict to an index/count list the fixed point can walk
    # without dictionary churn.
    links: List[LinkKey] = []
    idx_of: Dict[LinkKey, int] = {}
    entries: Dict[str, List[Tuple[int, float]]] = {}
    for name, grp in groups.items():
        ent: List[Tuple[int, float]] = []
        for link, count in grp.counts.items():
            idx = idx_of.get(link)
            if idx is None:
                idx = idx_of[link] = len(links)
                links.append(link)
            ent.append((idx, count))
        entries[name] = ent

    # class-mixing overlap: expected shared router-router request hops
    # per CPU request (zero whenever the topology/routing keeps the CPU
    # approach to memory on GPU-free links).
    cpu_mix = 0.0
    if has_cpu:
        gpu_counts = groups["gpu_req"].counts
        cpu_mix = sum(
            cw
            for link, cw in groups["cpu_req"].counts.items()
            if link[0] == "link" and gpu_counts.get(link, 0.0) > 0.0
        )

    flat: FlatIndex = (links, entries, cpu_mix)
    if len(_MODEL_CACHE) >= _MODEL_CACHE_MAX:
        _MODEL_CACHE.pop(next(iter(_MODEL_CACHE)))
    _MODEL_CACHE[key] = (net, groups, flat)
    return net, groups, flat


def predict(
    cfg: SystemConfig, gpu: str, cpu: Optional[str] = None
) -> Prediction:
    """Analytical performance estimate for one workload point.

    ``cpu=None`` models a GPU-only run (no CPU co-runner traffic).
    """
    g = gpu_benchmark(gpu)
    c = cpu_benchmark(cpu) if cpu else None
    # flow groups and their routes depend only on the config, so they are
    # cached per config hash (rates are rewritten every iteration).
    net, groups, (links, entries, cpu_mix) = _network_and_groups(
        cfg, has_cpu=c is not None
    )
    pl = net.placement
    n_gpu, n_cpu, n_mem = len(pl.gpu_nodes), len(pl.cpu_nodes), len(pl.mem_nodes)
    bw = net.bandwidth

    delegation = cfg.delegation_active
    probing = cfg.probing_active

    # --- static workload-derived probabilities ---------------------------
    gpu_hit = min(1.0, g.p_reuse ** K_GPU_REUSE)
    gpu_miss = 1.0 - gpu_hit
    wf = g.write_fraction
    p_read_miss = (1.0 - wf) * gpu_miss
    warps = cfg.gpu_core.warps
    if g.active_warps:
        warps = min(warps, g.active_warps)
    cpu_miss = min(1.0, (1.0 - c.p_reuse) * CPU_MISS_SCALE) if c else 0.0

    # footprint-driven LLC miss rates (per class: the co-runner's working
    # set and the GPU kernel's footprint overflow the shared LLC
    # independently; each core's private blocks are distinct).
    llc_blocks = max(1, cfg.llc.slice_size_bytes // cfg.llc.line_bytes * n_mem)
    foot_gpu = g.private_blocks * n_gpu + g.shared_blocks
    gpu_llc_miss = min(
        LLC_MISS_MAX,
        max(LLC_MISS_MIN, LLC_MISS_BASE + LLC_MISS_FOOT * foot_gpu / llc_blocks),
    )
    cpu_llc_miss = 0.0
    if c:
        foot_cpu = c.footprint_blocks * cfg.cpu_l1.line_bytes
        cpu_llc_miss = min(
            LLC_MISS_MAX,
            max(
                LLC_MISS_MIN,
                LLC_MISS_BASE
                + LLC_MISS_FOOT * foot_cpu / (llc_blocks * cfg.llc.line_bytes),
            ),
        )

    deleg = 0.0
    if delegation:
        deleg = K_DELEG * g.p_shared * (1.0 - K_DELEG_LAG * g.p_lag)
        if g.writes_shared:
            # shared-region writes invalidate the LLC core pointers the
            # delegation would have used (BP's pathology).
            deleg *= (1.0 - wf) ** 2
        deleg = min(1.0, max(0.0, deleg))

    p_probe = 0.0
    probe_hit = 0.0
    probe_width = 0
    if probing:
        from repro.core.realistic_probing import ProbeEngine

        scale = cfg.probing.predictor_threshold / 0.5
        p_probe = min(
            1.0,
            (ProbeEngine.TRUE_POSITIVE * g.p_shared
             + ProbeEngine.FALSE_POSITIVE * (1.0 - g.p_shared)) * scale,
        )
        probe_hit = min(1.0, K_PROBE_HIT * g.p_shared * (1.0 - K_DELEG_LAG * g.p_lag))
        probe_width = min(cfg.probing.probe_width, n_gpu - 1)

    f_gpu_rep = cfg.noc.flits_for(cfg.gpu_l1.line_bytes)
    GPU, REP = TrafficClass.GPU, NetKind.REPLY

    # --- fixed point ------------------------------------------------------
    rate_cpu_req = 0.0
    bottleneck: Optional[LinkKey] = None
    w_mem = w_mem_cpu = w_in = svc_mem = svc_mem_cpu = w_out = 0.0
    iters = 0

    dram_ser = max(cfg.dram.t_ccd, cfg.dram.burst_cycles)
    dram_lat = (
        cfg.dram.t_cl + cfg.dram.burst_cycles
        + ROW_MISS * (cfg.dram.t_rp + cfg.dram.t_rcd)
    )

    # per-unit-rate_mem group multipliers (packets/cycle aggregate when
    # one core issues one memory op per cycle).
    reads_u = (1.0 - wf) * gpu_miss * n_gpu
    writes_u = wf * n_gpu
    probed_u = reads_u * p_probe
    llc_reads_u = reads_u - probed_u * probe_hit

    # Every group's rate is a static multiplier times one of two scalars
    # (the aggregate GPU memory-op rate or the per-core CPU request
    # rate), so per-link offered load collapses to unit-load vectors
    # computed once; the fixed point rescales them instead of re-walking
    # the accumulate/priority-waits machinery each iteration.
    gpu_mults = {
        "gpu_req": llc_reads_u,
        "gpu_wreq": writes_u,
        "gpu_rep": llc_reads_u * (1.0 - deleg),
        "gpu_wack": writes_u,
    }
    if delegation:
        gpu_mults["dreq"] = llc_reads_u * deleg
        gpu_mults["c2c"] = llc_reads_u * deleg
    if probing:
        gpu_mults["probe"] = probed_u * probe_width
        gpu_mults["nack"] = probed_u * (probe_width - probe_hit)
        gpu_mults["c2c_rp"] = probed_u * probe_hit
    cpu_mults = {"cpu_req": float(n_cpu), "cpu_rep": float(n_cpu)} if c else {}

    n_links = len(links)
    gw_work = [0.0] * n_links   # unit-rate rho (sum rate*service)
    gw_work2 = [0.0] * n_links  # unit-rate sum rate*service^2
    cw_work = [0.0] * n_links
    cw_work2 = [0.0] * n_links
    for mults, w1, w2 in (
        (gpu_mults, gw_work, gw_work2), (cpu_mults, cw_work, cw_work2)
    ):
        for name, mult in mults.items():
            if mult <= 0.0:
                continue
            ser = net.service_cycles(groups[name].flits)
            ser2 = ser * ser
            for idx, cnt in entries[name]:
                r = mult * cnt
                w1[idx] += r * ser
                w2[idx] += r * ser2
    # reply-stream unit aggregates for the drain-time estimate
    grep_rate_u = grep_work_u = crep_rate_u = crep_work_u = 0.0
    for name, grp in groups.items():
        if grp.net is not REP:
            continue
        ser = net.service_cycles(grp.flits)
        m = gpu_mults.get(name, 0.0)
        grep_rate_u += m
        grep_work_u += m * ser
        m = cpu_mults.get(name, 0.0)
        crep_rate_u += m
        crep_work_u += m * ser

    # zero-load round trips (hop + serialisation + memory service only);
    # these anchor both the demand test and the backlog estimate.
    def free_path(name: str) -> float:
        grp = groups.get(name)
        if grp is None:
            return 0.0
        return grp.mean_hops * net.hop_cycles + (grp.flits - 1) / bw

    l_free_gpu = (
        free_path("gpu_req")
        + cfg.llc.hit_latency + gpu_llc_miss * dram_lat
        + free_path("gpu_rep")
    )
    l_free_cpu = (
        free_path("cpu_req")
        + cfg.llc.hit_latency + cpu_llc_miss * dram_lat
        + free_path("cpu_rep")
    )
    l_gpu, l_cpu = l_free_gpu, l_free_cpu
    issue_cap = cfg.gpu_core.issue_width / (1.0 + g.compute_gap)

    def gpu_demand(latency: float) -> float:
        """Per-core memory-op demand at a given round-trip latency.

        Three finite pools can bind: the warp scheduler (warps block on
        their own read misses), the L1 MSHRs (read misses in flight),
        and the write-through outstanding-write cap (writes retire the
        warp immediately but stall issue once ``GPU_WRITE_CAP`` acks are
        pending — the write-heavy BP pathology).  The write-ack round
        trip shares the clogged memory-node queue with reads, so the
        same latency approximates both.
        """
        warp_cap = warps / ((1.0 + g.compute_gap) + p_read_miss * latency)
        mshr_cap = cfg.gpu_l1.mshrs / max(p_read_miss * latency, _EPS)
        write_cap = GPU_WRITE_CAP / max(wf * latency, _EPS)
        return min(issue_cap, warp_cap, mshr_cap, write_cap)

    rate_mem = gpu_demand(l_free_gpu)
    rate_free = rate_mem
    rate_cap = rate_mem
    saturated = False
    # request packets the fabric can actually park in front of a later
    # arrival (see UPSTREAM_PKTS_MAX): the VC buffers a request may use
    # per router hop short of the memory router itself, or — on
    # single-stage / short-path
    # topologies where the path holds nothing — the head-of-line slots
    # of the other sources contending at the final switch (~half a
    # request per GPU source; the rest of their backlog parks in private
    # injection queues where it delays nobody).
    req_lo, req_hi = cfg.noc.vc_ranges[NetKind.REQUEST]
    upstream_pkts_cap = min(
        UPSTREAM_PKTS_MAX,
        max(
            (req_hi - req_lo) * cfg.noc.vc_depth_flits
            * (groups["gpu_req"].mean_hops - 1.0),
            0.5 * n_gpu,
        ),
    )
    #: path-composed read round trip (in-network + memory-node waits only,
    #: no pool stretching) — tracks how deep the read stream's own queues
    #: are even when the write pool is what throttles issue.
    l_read = l_free_gpu
    backlog = 0.0
    inventory = (
        cfg.llc.input_queue + LLC_OUTPUT_CAPACITY
        + cfg.noc.mem_injection_buffer_flits / max(f_gpu_rep, 1)
        + MEM_ROUTER_SLACK_PKTS
    )

    for iters in range(1, MAX_ITERS + 1):
        # 1. CPU demand at the current CPU latency (never throttled) ------
        if c:
            per_op = c.mem_interval + c.dep_fraction * cpu_miss * l_cpu
            rate_cpu_req = cpu_miss / per_op
            rate_cpu_req = min(
                rate_cpu_req, cfg.cpu_core.max_outstanding / max(l_cpu, 1.0)
            )

        # 2. capacity scan: with CPU load fixed, how much GPU demand fits
        # under RHO_CAP on every link and memory-node station? ------------
        x_gpu_u = (llc_reads_u + writes_u) / n_mem
        x_cpu_node = (rate_cpu_req * n_cpu) / n_mem if c else 0.0
        # only read misses reach DRAM: the LLC acks write-through writes
        # at hit latency without submitting them to the controller.
        dram_gpu_u = llc_reads_u * gpu_llc_miss / n_mem * dram_ser

        rate_cap = math.inf
        bottleneck = None
        for i in range(n_links):
            gw = gw_work[i]
            if gw <= _EPS:
                continue
            cap_here = max(0.0, RHO_CAP - rate_cpu_req * cw_work[i]) / gw
            if cap_here < rate_cap:
                rate_cap = cap_here
                bottleneck = links[i]
        if x_gpu_u > _EPS:
            cap_here = max(0.0, RHO_CAP - x_cpu_node) / x_gpu_u
            if cap_here < rate_cap:
                rate_cap, bottleneck = cap_here, ("llc", 0, -1)
        if dram_gpu_u > _EPS:
            cap_here = (
                max(0.0, RHO_CAP - x_cpu_node * cpu_llc_miss * dram_ser)
                / dram_gpu_u
            )
            if cap_here < rate_cap:
                rate_cap, bottleneck = cap_here, ("dram", 0, -1)

        # 3. carried GPU rate and equilibrium round trip ------------------
        rate_free = gpu_demand(l_free_gpu)
        saturated = rate_free > rate_cap
        write_bound = False
        if saturated:
            # clogged: throughput is the bottleneck capacity; latency
            # grows until the endpoint pools throttle demand to match
            # (Little's law over whichever pool binds).
            rate_mem = rate_cap
            l_warp = (
                (warps / max(rate_cap, _EPS) - (1.0 + g.compute_gap))
                / max(p_read_miss, _EPS)
            )
            l_mshr = cfg.gpu_l1.mshrs / max(rate_cap * p_read_miss, _EPS)
            l_wcap = GPU_WRITE_CAP / max(rate_cap * wf, _EPS)
            # the pool whose implied latency is smaller binds first
            l_eq_read = min(max(l_warp, l_free_gpu), max(l_mshr, l_free_gpu))
            l_eq = min(l_eq_read, max(l_wcap, l_free_gpu))
            write_bound = l_eq < l_eq_read
            l_gpu_new = l_eq
        else:
            rate_mem = gpu_demand(l_gpu)
            l_gpu_new = None  # from path composition below

        # 4. waits at carried rates ---------------------------------------
        # M/G/1 non-preemptive priority per link: CPU ahead of GPU.
        w_cpu_link = [0.0] * n_links
        w_gpu_link = [0.0] * n_links
        for i in range(n_links):
            rho_c = rate_cpu_req * cw_work[i]
            rho_g = rate_mem * gw_work[i]
            if rho_c + rho_g <= _EPS:
                continue
            w_cpu_link[i], w_gpu_link[i] = cpu_gpu_waits(
                rho_c, rho_g,
                0.5 * (rate_cpu_req * cw_work2[i] + rate_mem * gw_work2[i]),
            )

        # backlog: carried read flow times the latency in excess of free
        # flight is the number of packets parked in queues; per memory
        # node, against its finite buffer inventory.  When a *read* pool
        # binds, reads park until the pool fills and the equilibrium
        # latency is the right Little's-law multiplier.  When the *write*
        # pool binds, the in-order SM stalls before the read pools fill,
        # so outstanding reads are set by the shallower path-composed
        # read round trip instead (BP's write-heavy pathology).
        reads_carried = llc_reads_u * rate_mem
        l_backlog = l_read if write_bound else l_gpu
        backlog = reads_carried * max(0.0, l_backlog - l_free_gpu) / n_mem
        fill = backlog / (backlog + inventory)
        x_node = (llc_reads_u + writes_u) * rate_mem / n_mem + x_cpu_node
        rho_llc = min(x_node, 0.999)
        # FIFO input queue: backlog-driven occupancy, the critical-load
        # hover term, and the light-load M/M/1 component; CPU and GPU
        # wait equally here (no priority inside the memory node) — the
        # paper's central observation.
        u_crit = min(1.0, rate_mem / max(rate_cap, _EPS))
        depth = rate_free / max(rate_cap, _EPS)
        ramp = min(1.0, max(0.0, (depth - 1.0) / (CRIT_OCC_RAMP - 1.0)))
        occ_in = cfg.llc.input_queue * max(
            fill, CRIT_OCC_FRAC * ramp * u_crit ** CRIT_OCC_POW
        ) + min(rho_llc / (1.0 - rho_llc), 4.0)
        occ_in = min(occ_in, float(cfg.llc.input_queue))
        w_in = occ_in / max(x_node, 0.01)
        dram_sojourn = (
            dram_lat + fill * cfg.dram.queue_depth * dram_ser / cfg.dram.banks
        )
        svc_mem = cfg.llc.hit_latency + gpu_llc_miss * dram_sojourn
        svc_mem_cpu = cfg.llc.hit_latency + cpu_llc_miss * dram_sojourn
        # reply drain: LLC output queue + NIC injection buffer ahead of a
        # freshly built reply, one worm per mean reply service time.
        rep_rate = rate_mem * grep_rate_u + rate_cpu_req * crep_rate_u
        rep_work = rate_mem * grep_work_u + rate_cpu_req * crep_work_u
        rep_ser = rep_work / rep_rate if rep_rate > _EPS else f_gpu_rep / bw
        w_out = (
            LLC_OUTPUT_CAPACITY * fill * rep_ser
            + fill * cfg.noc.mem_injection_buffer_flits / bw
        )
        # requests queued in the fabric upstream of a full LLC input
        # queue; they delay every later arrival, CPU requests included.
        w_up = min(max(backlog - inventory, 0.0), upstream_pkts_cap) / max(
            x_node, 0.01
        )
        # FIFO sharing on the memory approach: where the CPU route rides
        # the same request links as the GPU flood, the CPU packet queues
        # behind the GPU backlog parked in the fabric's input VCs and the
        # switch-allocation priority never gets to act on it.  Only the
        # backlog that overflows the node's own inventory parks upstream
        # in routers, so lightly-backlogged points (NN) stay untouched.
        w_fifo = 0.0
        if cpu_mix > 0.0:
            upstream = min(max(backlog - inventory, 0.0), FIFO_PKTS_MAX)
            w_fifo = K_FIFO_MIX * cpu_mix * upstream / max(x_node, 0.01)
        w_mem = w_up + w_in + svc_mem + w_out
        w_mem_cpu = w_up + w_in + svc_mem_cpu + w_out + w_fifo

        # 5. path latencies and the damped update -------------------------
        def path(name: str) -> float:
            grp = groups.get(name)
            if grp is None:
                return 0.0
            warr = w_cpu_link if grp.cls is TrafficClass.CPU else w_gpu_link
            wait = 0.0
            for idx, cnt in entries[name]:
                w = warr[idx]
                wait += cnt * (w if w < LINK_WAIT_CAP else LINK_WAIT_CAP)
            return grp.mean_hops * net.hop_cycles + (grp.flits - 1) / bw + wait

        l_direct = path("gpu_req") + w_mem + path("gpu_rep")
        if delegation and deleg > 0.0:
            # delegated trip: request -> LLC hit -> pointer core's
            # FRQ serves from its L1 -> C2C reply to the requester.
            l_deleg = (
                path("gpu_req") + w_up + w_in + cfg.llc.hit_latency
                + path("dreq") + 2.0 + path("c2c")
            )
            l_direct = (1.0 - deleg) * l_direct + deleg * l_deleg
        if probing and p_probe > 0.0:
            probe_rt = path("probe") + 2.0 + path("nack")
            l_hit = path("probe") + 2.0 + path("c2c_rp")
            l_direct = (
                (1.0 - p_probe) * l_direct
                + p_probe * probe_hit * l_hit
                + p_probe * (1.0 - probe_hit) * (probe_rt + l_direct)
            )
        if l_gpu_new is None:
            l_gpu_new = l_direct
        l_cpu_new = (path("cpu_req") + w_mem_cpu + path("cpu_rep")) if c else 0.0

        prev_gpu, prev_cpu = l_gpu, l_cpu
        l_read = DAMP * l_read + (1.0 - DAMP) * min(l_direct, 1e6)
        l_gpu = DAMP * l_gpu + (1.0 - DAMP) * min(l_gpu_new, 1e6)
        l_cpu = DAMP * l_cpu + (1.0 - DAMP) * min(l_cpu_new, 1e6)
        if abs(l_gpu - prev_gpu) < 0.5 and abs(l_cpu - prev_cpu) < 0.5:
            break

    # --- outputs ---------------------------------------------------------
    pred = Prediction(gpu=gpu, cpu=cpu or "", mechanism=cfg.mechanism.value)
    pred.iterations = iters
    pred.delegated_fraction = deleg
    # demand utilisation of the bottleneck had nothing throttled: the
    # zero-load demand against the carrying capacity of the worst link.
    pred.demand_rho = (
        RHO_CAP * rate_free / rate_cap if rate_cap > _EPS else math.inf
    )
    pred.saturated = saturated
    pressure = backlog / inventory if inventory > 0 else 0.0
    pred.mem_blocking_rate = pressure / (pressure + BLOCKING_KNEE)
    if bottleneck is not None:
        pred.bottleneck = link_name(bottleneck)

    max_rho = 0.0
    hot: List[Tuple[str, float]] = []
    for i in range(n_links):
        rho = rate_cpu_req * cw_work[i] + rate_mem * gw_work[i]
        max_rho = max(max_rho, rho)
        if rho >= 0.5:
            hot.append((link_name(links[i]), rho))
    hot.sort(key=lambda kv: -kv[1])
    pred.max_rho = max_rho
    pred.link_rho = dict(hot[:12])

    pred.gpu_latency_avg = l_gpu
    # no co-runner: l_cpu is only its free-path seed, damped toward zero
    l_cpu = pred.cpu_latency_avg = l_cpu if c else 0.0
    # p95: the queueing component has the heavy tail, the hop/service floor not
    floor_cpu = (
        groups["cpu_rep"].mean_hops + groups["cpu_req"].mean_hops
    ) * net.hop_cycles + svc_mem_cpu if c else 0.0
    floor_gpu = (
        groups["gpu_rep"].mean_hops + groups["gpu_req"].mean_hops
    ) * net.hop_cycles + svc_mem
    pred.cpu_latency_p95 = floor_cpu + p95_of_mean(max(l_cpu - floor_cpu, 0.0))
    pred.gpu_latency_p95 = floor_gpu + p95_of_mean(max(l_gpu - floor_gpu, 0.0))
    fill = backlog / (backlog + inventory) if inventory > 0 else 0.0
    pred.gpu_reply_latency = (
        fill * cfg.noc.mem_injection_buffer_flits / bw
        + groups["gpu_rep"].mean_hops * net.hop_cycles
        + (f_gpu_rep - 1) / bw
    )

    pred.gpu_ipc = rate_mem * (1.0 + g.compute_gap)
    if c:
        # instruction rate = mem-op completion rate * insts per mem op
        per_op = c.mem_interval + c.dep_fraction * cpu_miss * l_cpu
        pred.cpu_ipc = c.mem_interval / per_op
    return pred
