"""Facades wrapping :class:`~repro.sim.vector.kernel.VectorKernel`.

The vector backend keeps all hot-path state in the kernel's numpy arrays;
everything in this module is a thin object-shaped view over those arrays
so the rest of the tree (metrics collection, the fault controller, memory
nodes, cores) talks to the vector backend through the exact surface
:class:`~repro.noc.network.NocFabric` exposes:

* :class:`VectorFabric` — drop-in for ``NocFabric`` (what
  ``engines.build_fabric`` builds when the vector kernel is selected),
* :class:`VectorNet` — drop-in for ``PhysicalNetwork`` statistics and
  fault-controller surfaces,
* :class:`VectorNic` — a real :class:`~repro.noc.nic.NodeInterface` (the
  endpoint half is the object backend's code) whose queues are the
  kernel's injection lanes, drained by its batched step, and whose
  counters are views into kernel arrays,
* :class:`_VecMemNic` — a ``VectorNic`` that is also a real
  :class:`~repro.noc.nic.MemoryNodeNic` (reply ordering, admission and
  the delegation scan are the object backend's code) whose per-cycle
  accounting fields are cells of the kernel's memory-lane rows.

What the arrays do not model is listed once, in
:data:`repro.sim.engines.OBJECT_ONLY`; asking this fabric for any of it is
refused there, with a one-line :class:`~repro.sim.engines.BackendError`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.config.system import NocConfig
from repro.noc.network import NETWORK_NAMES
from repro.noc.nic import MemoryNodeNic, NodeInterface
from repro.noc.packet import NetKind, Packet
from repro.noc.topology import BaseTopology
from repro.sim.engines import select_backend
from repro.sim.vector.kernel import VectorKernel


class _NodeCounter:
    """``{NetKind | TrafficClass: int}`` view of one node's column of a
    ``(2, n)`` kernel counter array."""

    __slots__ = ("_arr", "_node")

    def __init__(self, arr, node: int) -> None:
        self._arr = arr
        self._node = node

    def __getitem__(self, key) -> int:
        return int(self._arr[int(key), self._node])

    def __setitem__(self, key, value: int) -> None:
        self._arr[int(key), self._node] = value


class _RouterStats:
    """Per-router statistics view (fault watchdog, analysis helpers)."""

    __slots__ = ("_K", "_row", "rid")

    def __init__(self, kernel: VectorKernel, net_i: int, rid: int) -> None:
        self._K = kernel
        self._row = net_i * kernel.n + rid
        self.rid = rid

    @property
    def flits_routed(self) -> int:
        return int(self._K.flits_routed[self._row])

    def buffered_flits(self) -> int:
        K = self._K
        lo = self._row * K.PV
        return int(K.occ[lo:lo + K.PV].sum())

    @property
    def active(self) -> bool:
        return self.buffered_flits() > 0


class VectorNet:
    """``PhysicalNetwork``-shaped statistics/fault surface of one net."""

    def __init__(self, name: str, kernel: VectorKernel, net_i: int) -> None:
        self.name = name
        self._K = kernel
        self._net_i = net_i
        self.topology = kernel.topology
        self.cfg = kernel.cfg
        self.vcs = kernel.V
        self.bandwidth = kernel.bandwidth
        self.telemetry = None
        self.stall_tel = None
        #: assigned by the fault controller on install (same contract as
        #: PhysicalNetwork: default empty/falsy keeps hot-path checks cheap)
        self.faults = None
        self.fault_down: frozenset = frozenset()
        self.fault_frozen: frozenset = frozenset()
        self.packets_delivered = 0
        self.flits_delivered = 0
        self.cycles = 0
        self.delivered_by_type: Dict[int, int] = {}
        self.routers = [
            _RouterStats(kernel, net_i, rid) for rid in range(kernel.n)
        ]

    def mark_router_active(self, rid: int) -> None:
        pass  # no active-set scheduler: every router is stepped in batch

    def total_flits_routed(self) -> int:
        return self._K.net_flits_routed(self._net_i)

    def buffered_flits(self) -> int:
        return self._K.net_buffered(self._net_i)

    @property
    def link_flits(self) -> List[List[int]]:
        """Per-link flit counts, ``[rid][oport]`` shaped like the object
        kernel's (materialised from the kernel's flat group array)."""
        K = self._K
        base = self._net_i * K.n
        out = []
        for rid in range(K.n):
            g0 = (base + rid) * K.P
            nports = 1 + len(self.topology.port_of[rid])
            out.append([int(K.link_flits[g0 + p]) for p in range(nports)])
        return out

    def link_utilization(self, rid: int, oport: int) -> float:
        if self.cycles == 0:
            return 0.0
        K = self._K
        g = (self._net_i * K.n + rid) * K.P + oport
        return int(K.link_flits[g]) / (self.cycles * self.bandwidth)


def _cell(arr: str, index: str = "_lane") -> property:
    """A NIC attribute stored at ``kernel.<arr>[nic.<index>]``: the scalar
    NIC code and the kernel's array ops share the one copy."""

    def get(nic):
        return getattr(nic._K, arr).item(getattr(nic, index))

    def put(nic, value) -> None:
        getattr(nic._K, arr)[getattr(nic, index)] = value

    return property(get, put)


class _Mirrored:
    """A NIC attribute only the scalar side writes: a write also lands in
    ``kernel.<arr>[nic.<index>]`` for the array ops; having no
    ``__get__``, reads are plain instance-attribute reads."""

    def __init__(self, arr: str, index: str = "_lane") -> None:
        self._arr = arr
        self._index = index

    def __set_name__(self, owner, name: str) -> None:
        self._name = name

    def __set__(self, nic, value) -> None:
        nic.__dict__[self._name] = value
        getattr(nic._K, self._arr)[getattr(nic, self._index)] = value


class VectorNic(NodeInterface):
    """Compute-node NIC of the vector backend.

    The endpoint half (``try_send``, ``queued``, ``can_enqueue``,
    ``can_eject`` and the telemetry / fault hook sites) is inherited; this
    class only points it at kernel storage: the queues are the kernel's
    injection lanes, drained by its batched step, and every counter the
    rest of the tree reads is a view into the kernel's arrays.
    """

    def __init__(self, node_id: int, fabric, kernel: VectorKernel, *rest):
        # ``rest``: what the next constructor takes after the queue bound
        # (a memory NIC's reply-buffer size)
        self._K = kernel
        super().__init__(
            node_id, fabric, kernel.cfg.node_injection_queue_packets, *rest
        )
        self.queues = {
            kind: kernel.queues[kind][node_id]
            for kind in (NetKind.REQUEST, NetKind.REPLY)
        }
        self.flits_injected_net = _NodeCounter(kernel.flits_injected_arr, node_id)
        self.flits_received = _NodeCounter(kernel.flits_rx_arr, node_id)

    data_flits_received = _cell("data_rx_arr", "node_id")
    #: set in the request lane's ``pop_wake`` cell while a core sleeps
    sleeper = _Mirrored("pop_wake", "node_id")

    @NodeInterface.eject_gate.setter
    def eject_gate(self, fn: Optional[Callable[[Packet], bool]]) -> None:
        # gates are re-evaluated every pass: nothing sleeps on the old one
        self._eject_gate_fn = fn
        self._K.set_gate(self.node_id, fn)


class _VecMemNic(VectorNic, MemoryNodeNic):
    """Memory-node NIC on the vector backend.

    ``try_send`` (CPU-first reply ordering), the flit-bounded admission
    rule and the delegation scan are ``MemoryNodeNic``'s; injection,
    reply-buffer drain, the delegation trigger and blocked-cycle accounting
    run inside the kernel (``_inject`` / ``_mem_account``), so on top of
    :class:`VectorNic` this class only stores the memory-node fields in
    the kernel's memory-lane rows.
    """

    def __init__(self, node_id: int, fabric, kernel: VectorKernel, lane: int):
        self._lane = lane
        self._occ = kernel.mem_occ
        super().__init__(
            node_id, fabric, kernel, kernel.cfg.mem_injection_buffer_flits
        )

    blocked_cycles = _cell("mem_blocked")
    worst_reply_flits = _Mirrored("mem_worst")
    #: the trigger's one setting, fed by ``MemoryNodeNic.set_delegation``
    delegate_only_when_blocked = _Mirrored("mem_only_blocked")
    _delegatable = _Mirrored("mem_mark")

    @property
    def _reply_occ(self) -> int:  # read on every admission check
        return self._occ.item(self._lane)

    @_reply_occ.setter
    def _reply_occ(self, flits: int) -> None:
        self._occ[self._lane] = flits


class VectorFabric:
    """Drop-in for :class:`~repro.noc.network.NocFabric` backed by the
    struct-of-arrays kernel (DESIGN.md §12)."""

    def __init__(
        self,
        topology: BaseTopology,
        cfg: NocConfig,
        mem_nodes: Tuple[int, ...] = (),
    ) -> None:
        self.topology = topology
        self.cfg = cfg
        self.separate_networks = cfg.separate_physical_networks
        self.bandwidth = cfg.link_flits_per_cycle
        select_backend("vector", topology.n, cfg)  # refuses adaptive routing
        facades: List[VectorNet] = []
        kernel = VectorKernel(topology, cfg, mem_nodes, facades)
        self.kernel = kernel
        facades.extend(
            VectorNet(name, kernel, net_i)
            for net_i, name in enumerate(NETWORK_NAMES[cfg.physical_networks])
        )
        self.request_net, self.reply_net = facades[0], facades[-1]
        self._net_list: Tuple[VectorNet, ...] = tuple(facades)
        lane_of = {node: lane for lane, node in enumerate(kernel.mem_nodes)}
        self.nics: List = [
            _VecMemNic(node, self, kernel, lane_of[node])
            if node in lane_of
            else VectorNic(node, self, kernel)
            for node in range(topology.n)
        ]
        kernel.nics = self.nics
        kernel.fabric = self
        self.telemetry = None
        self.faults = None

    # -- telemetry ------------------------------------------------------

    def attach_telemetry(self, collector) -> None:
        select_backend("vector", self.topology.n, self.cfg, telemetry=True)

    # -- endpoint API ---------------------------------------------------

    def nic(self, node: int):
        return self.nics[node]

    # -- simulation -----------------------------------------------------

    def mark_nic_active(self, node: int) -> None:
        pass  # every queue is visible to the batched injection step

    def wake_node_routers(self, node: int) -> None:
        pass  # gates are re-evaluated every pass

    def step(self, cycle: int) -> None:
        for net in self._net_list:
            net.cycles += 1
        self.kernel.step(cycle)

    def in_flight_flits(self) -> int:
        return int(self.kernel.occ.sum())
