"""Seeded synthetic traffic: drawn once, replayed on any fabric.

A *schedule* is a plain list with one entry per cycle, each entry a list
of packet specs ``(src, dst, mtype, cls, size_flits, delegate_to)``;
``delegate_to`` is the core a memory node's reply may be delegated to
(:attr:`~repro.noc.packet.Packet.delegate_to`), else None.  The generators draw
from a 64-bit LCG and look at nothing else, so a schedule depends only on
its arguments: every fabric build — sleeping or all-awake, object or
vector, with telemetry or without — is offered the identical packets
through :func:`replay`, and any counter that differs is the fabric's
doing.

:data:`SCENARIOS` names the four bare-fabric setups the differential
tests and the CI ratio gates (``.github/scripts/ratio_gate.py``) replay;
:func:`run_bench` times one of them.  Numbers worth recording come from
``python3 e2e_bench/run.py``, not from here.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from repro.config.system import DelegationConfig, NocConfig
from repro.noc import MeshTopology, MessageType, Packet, TrafficClass
from repro.sim.engines import build_fabric

_MASK = (1 << 64) - 1

#: ``(src, dst, mtype, cls, size_flits, delegate_to)``
PacketSpec = Tuple[int, int, MessageType, TrafficClass, int, Optional[int]]
Schedule = List[List[PacketSpec]]


class Lcg:
    """Deterministic 64-bit linear congruential generator."""

    __slots__ = ("state",)

    def __init__(self, seed: int) -> None:
        self.state = (seed ^ 0x9E3779B97F4A7C15) & _MASK

    def next(self) -> int:
        self.state = (self.state * 6364136223846793005 + 1442695040888963407) & _MASK
        return self.state >> 33

    def below(self, n: int) -> int:
        return self.next() % n


def uniform_schedule(n: int, cycles: int, permille: int, seed: int) -> Schedule:
    """Uniform-random traffic: every node sends to every other node.

    ``permille`` packets per 1000 node-cycles, drawn as a per-cycle count
    so generation costs O(packets), not O(nodes).  Odd draws are 1-flit
    requests, even draws 9-flit GPU replies (the paper's 128 B cache-line
    reply), so both networks carry load.
    """
    rng = Lcg(seed)
    base, frac = divmod(n * permille, 1000)
    sched: Schedule = []
    for _ in range(cycles):
        cyc: List[PacketSpec] = []
        for _ in range(base + (1 if rng.below(1000) < frac else 0)):
            src = rng.below(n)
            dst = rng.below(n - 1)
            if dst >= src:
                dst += 1
            if rng.next() & 1:
                cyc.append((src, dst, MessageType.READ_REQ,
                            TrafficClass.GPU, 1, None))
            else:
                cyc.append((src, dst, MessageType.READ_REPLY,
                            TrafficClass.GPU, 9, None))
        sched.append(cyc)
    return sched


def hotspot_schedule(
    n: int, mem_nodes: Sequence[int], cycles: int, permille: int, seed: int,
    cpu_permille: int = 0,
) -> Schedule:
    """Hotspot requests onto memory nodes, delegatable replies back.

    Compute nodes fire 1-flit read requests at the memory nodes; each
    memory node answers (at twice the rate) with 9-flit GPU replies whose
    ``delegate_to`` names a sharer, so on a fabric whose memory NICs run
    Delegated Replies the reply pressure triggers the conversion path of
    Figure 4.  ``cpu_permille`` of the replies are
    5-flit CPU replies instead (a 64 B line, never delegatable), which the
    memory node's injection buffer must schedule ahead of the GPU ones.
    """
    rng = Lcg(seed)
    mem_set = set(mem_nodes)
    compute = [node for node in range(n) if node not in mem_set]
    req_base, req_frac = divmod(len(compute) * permille, 1000)
    rep_base, rep_frac = divmod(len(mem_nodes) * permille * 2, 1000)
    sched: Schedule = []
    for _ in range(cycles):
        cyc: List[PacketSpec] = []
        for _ in range(req_base + (1 if rng.below(1000) < req_frac else 0)):
            src = compute[rng.below(len(compute))]
            dst = mem_nodes[rng.below(len(mem_nodes))]
            cyc.append((src, dst, MessageType.READ_REQ,
                        TrafficClass.GPU, 1, None))
        for _ in range(rep_base + (1 if rng.below(1000) < rep_frac else 0)):
            src = mem_nodes[rng.below(len(mem_nodes))]
            dst = compute[rng.below(len(compute))]
            sharer = compute[rng.below(len(compute))]
            if cpu_permille and rng.below(1000) < cpu_permille:
                cyc.append((src, dst, MessageType.READ_REPLY,
                            TrafficClass.CPU, 5, None))
                continue
            cyc.append((src, dst, MessageType.READ_REPLY, TrafficClass.GPU,
                        9, sharer if sharer != dst else None))
        sched.append(cyc)
    return sched


def replay(
    fabric,
    schedule: Schedule,
    start: int = 0,
    on_cycle: Optional[Callable[[int], None]] = None,
) -> int:
    """Offer ``schedule`` to ``fabric`` one cycle at a time from ``start``.

    Each cycle's packets go through ``nic.try_send`` (a full injection
    queue drops the offer, as it would a core's), then the fabric steps
    and ``on_cycle`` — a telemetry collector's, say — runs.  Returns the
    number of packets the NICs accepted.
    """
    nics = fabric.nics
    accepted = 0
    for cycle, specs in enumerate(schedule, start):
        for src, dst, mtype, cls, size, delegate_to in specs:
            pkt = Packet(src, dst, mtype, cls, size, delegate_to=delegate_to)
            if nics[src].try_send(pkt, cycle):
                accepted += 1
        fabric.step(cycle)
        if on_cycle is not None:
            on_cycle(cycle)
    return accepted


@dataclass(frozen=True)
class Scenario:
    """One bare-mesh setup: its shape, its traffic and a default window."""

    width: int
    height: int
    permille: int
    seed: int
    cycles: int
    #: non-empty: hotspot traffic onto these nodes, whose NICs run
    #: Delegated Replies; empty: uniform traffic
    mem_nodes: Tuple[int, ...] = ()
    separate_networks: bool = True

    def build(self, backend: Optional[str] = "object"):
        """A fresh fabric on ``backend`` (see :mod:`repro.sim.engines`)."""
        cfg = NocConfig(separate_physical_networks=self.separate_networks)
        fabric = build_fabric(
            backend, MeshTopology(self.width, self.height), cfg,
            mem_nodes=self.mem_nodes,
        )
        for m in self.mem_nodes:
            fabric.nic(m).set_delegation(DelegationConfig())
        return fabric

    def schedule(self, cycles: int) -> Schedule:
        n = self.width * self.height
        if self.mem_nodes:
            return hotspot_schedule(
                n, self.mem_nodes, cycles, self.permille, self.seed
            )
        return uniform_schedule(n, cycles, self.permille, self.seed)


SCENARIOS = {
    # light uniform load (0.5% per node-cycle): most routers idle most
    # cycles, which is what the active-set scheduler exploits
    "mesh8x8": Scenario(8, 8, permille=5, seed=1, cycles=12000),
    # east-column memory nodes under hotspot load, delegation firing
    "mesh8x8_dr": Scenario(8, 8, permille=200, seed=2, cycles=4000,
                           mem_nodes=(7, 15, 23, 31, 39, 47, 55, 63)),
    # one physical network with request/reply virtual networks (the AVCP
    # substrate of Section III-B) at moderate load
    "shared_vnet": Scenario(8, 8, permille=60, seed=3, cycles=6000,
                            separate_networks=False),
    # 1024 input VCs past saturation: the object kernel pays per flit,
    # the vector kernel's batch ops barely notice the extra rows
    "mesh16x16_sat": Scenario(16, 16, permille=250, seed=4, cycles=2500),
}


def delivered(fabric) -> Tuple[int, int]:
    """``(packets, flits)`` delivered so far, over both networks."""
    nets = {id(net): net for net in (fabric.request_net, fabric.reply_net)}
    return (
        sum(net.packets_delivered for net in nets.values()),
        sum(net.flits_delivered for net in nets.values()),
    )


class BenchResult(NamedTuple):
    cycles_per_sec: float
    packets_delivered: int
    flits_delivered: int


def run_bench(
    name: str, cycles: Optional[int] = None, backend: Optional[str] = "object"
) -> BenchResult:
    """Time ``cycles`` of scenario ``name`` on ``backend``.

    A short untimed warm-up fills the buffers first, so the timed window
    is steady-state stepping; the delivered counts include it.
    """
    scenario = SCENARIOS[name]
    cycles = scenario.cycles if cycles is None else cycles
    warmup = min(200, cycles // 10)
    schedule = scenario.schedule(warmup + cycles)
    fabric = scenario.build(backend)
    replay(fabric, schedule[:warmup])
    t0 = time.perf_counter()
    replay(fabric, schedule[warmup:], start=warmup)
    wall = time.perf_counter() - t0
    return BenchResult(cycles / wall, *delivered(fabric))
