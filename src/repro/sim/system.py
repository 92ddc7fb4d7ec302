"""Assembly of the full heterogeneous system.

``HeterogeneousSystem`` wires the configured topology, layout, NoC fabric,
GPU cores (with the chosen L1 organisation and mechanism), CPU cores and
memory nodes into one steppable simulation.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.config.system import L1Organization, SystemConfig
from repro.coherence.software import SoftwareCoherenceController
from repro.core.realistic_probing import ProbeEngine
from repro.cpu.core import CpuCore
from repro.faults.controller import FaultController
from repro.faults.plan import FaultPlan
from repro.gpu.core import GpuCore
from repro.gpu.cta import apply_cta_policy
from repro.gpu.shared_l1 import DynEBPort, PrivateL1, SharedL1Cluster, SharedL1Port
from repro.mem.address import AddressMap
from repro.noc.nic import MemoryNodeNic
from repro.noc.topology import build_topology
from repro.sim.engines import build_fabric, select_backend
from repro.sim.layout import NodePlacement, build_layout
from repro.sim.memory_node import MemoryNode
from repro.telemetry.collector import TelemetryCollector
from repro.workloads.cpu import CpuBenchmarkProfile, CpuTraceGenerator
from repro.workloads.gpu import GpuBenchmarkProfile, GpuTraceGenerator, SharedWavefront

#: GPU cores per shared-L1 cluster (DC-L1 [30])
_CORES_PER_CLUSTER = 8


def _apply_sim_scale(cfg: SystemConfig) -> SystemConfig:
    """Scale GPU L1 and LLC capacities for windowed simulation.

    See :attr:`SystemConfig.sim_scale`.  Scaling happens on a copy so the
    caller's config is untouched; floor is one set per cache.
    """
    if cfg.sim_scale == 1.0:
        return cfg
    scaled = cfg.copy()
    l1 = scaled.gpu_l1
    min_l1 = l1.assoc * l1.line_bytes
    l1.size_bytes = max(min_l1, int(l1.size_bytes * scaled.sim_scale))
    llc = scaled.llc
    min_llc = llc.assoc * llc.line_bytes
    llc.slice_size_bytes = max(min_llc, int(llc.slice_size_bytes * scaled.sim_scale))
    scaled.sim_scale = 1.0  # applied exactly once
    return scaled


class HeterogeneousSystem:
    """A complete simulated CPU-GPU chip running one workload mix."""

    def __init__(self, cfg: SystemConfig, gpu_profile: GpuBenchmarkProfile,
                 cpu_profile: Optional[CpuBenchmarkProfile] = None,
                 kernel_flush_interval: int = 0, faults: Optional[FaultPlan] = None,
                 backend: Optional[str] = None) -> None:
        cfg = _apply_sim_scale(cfg.validate())
        self.cfg = cfg
        # choose the kernel up front, so a named one that cannot do this
        # run fails with one line before any wiring
        self.backend = select_backend(
            backend, cfg.n_nodes, cfg.noc, cfg.telemetry.enabled, faults)
        self.layout: NodePlacement = build_layout(cfg)
        self.topology = build_topology(cfg.noc.topology, cfg.mesh_width, cfg.mesh_height)
        self.fabric = build_fabric(
            self.backend, self.topology, cfg.noc, mem_nodes=self.layout.mem_nodes)
        self.addr_map = AddressMap(self.layout.mem_nodes)
        self.cycle = 0
        self.kernel_flush_interval = kernel_flush_interval
        self.kernel_flushes = 0

        profile = apply_cta_policy(gpu_profile, cfg.cta_scheduler)
        self.gpu_profile = profile
        self.cpu_profile = cpu_profile
        self.wavefront = SharedWavefront(profile)

        # mechanism wiring: the probe engines here, Delegated Replies in
        # each MemoryNode (it configures its own NIC from cfg)
        probing = cfg.probing_active

        gpu_nodes = list(self.layout.gpu_nodes)
        self._clusters: List[SharedL1Cluster] = []
        self.gpu_cores: List[GpuCore] = []
        for idx, node in enumerate(gpu_nodes):
            l1 = self._build_l1(idx)
            trace = GpuTraceGenerator(profile, idx, self.wavefront, seed=cfg.seed)
            engine = (ProbeEngine(cfg.probing, node, gpu_nodes, seed=cfg.seed)
                      if probing else None)
            self.gpu_cores.append(GpuCore(
                node_id=node, core_index=idx, cfg=cfg, l1=l1, trace=trace,
                nic=self.fabric.nic(node), addr_map=self.addr_map,
                probe_engine=engine,
            ))

        self.cpu_cores: List[CpuCore] = []
        if cpu_profile is not None:
            for idx, node in enumerate(self.layout.cpu_nodes):
                trace = CpuTraceGenerator(cpu_profile, idx, seed=cfg.seed)
                self.cpu_cores.append(CpuCore(
                    node_id=node, core_index=idx, cfg=cfg, trace=trace,
                    nic=self.fabric.nic(node), addr_map=self.addr_map,
                ))

        gpu_node_set = set(gpu_nodes)
        self.memory_nodes: List[MemoryNode] = []
        for node in self.layout.mem_nodes:
            nic = self.fabric.nic(node)
            assert isinstance(nic, MemoryNodeNic)
            self.memory_nodes.append(
                MemoryNode(node_id=node, cfg=cfg, nic=nic, gpu_nodes=gpu_node_set))

        self.coherence = SoftwareCoherenceController(self.gpu_cores, self.memory_nodes)

        # opt-in observability (repro.telemetry): attach a collector to
        # every hook site.  Disabled configs leave every hook attribute
        # None, so the per-event cost is a single check.
        self.telemetry: Optional[TelemetryCollector] = None
        if cfg.telemetry.enabled:
            self.telemetry = TelemetryCollector(
                cfg.telemetry, self.fabric, self.layout.mem_nodes,
                self.memory_nodes, self.gpu_cores,
            )
            self.fabric.attach_telemetry(self.telemetry)

        # opt-in fault injection (repro.faults): installing a plan points
        # every fault hook site at the controller; without one they all
        # stay None and the hot path is untouched.
        self.faults: Optional[FaultController] = None
        if faults is not None:
            self.faults = FaultController(
                faults,
                fabric=self.fabric,
                addr_map=self.addr_map,
                gpu_nodes=gpu_node_set,
                telemetry=self.telemetry,
            )

    def _build_l1(self, core_index: int):
        org = self.cfg.l1_org
        if org is L1Organization.PRIVATE:
            return PrivateL1(self.cfg.gpu_l1)
        cluster_idx, slot = divmod(core_index, _CORES_PER_CLUSTER)
        while len(self._clusters) <= cluster_idx:
            self._clusters.append(SharedL1Cluster(self.cfg.gpu_l1))
        cluster = self._clusters[cluster_idx]
        if org is L1Organization.DC_L1:
            return SharedL1Port(cluster, slot)
        if org is L1Organization.DYNEB:
            return DynEBPort(cluster, slot, self.cfg.gpu_l1)
        raise ValueError(f"unknown L1 organisation {org}")

    # ------------------------------------------------------------------

    def step(self) -> None:
        cycle = self.cycle
        if (self.kernel_flush_interval and cycle > 0
                and cycle % self.kernel_flush_interval == 0):
            self.kernel_boundary()
        for mem in self.memory_nodes:
            if mem.wake_at <= cycle:  # else asleep: only counters owed
                mem.step(cycle)
        for core in self.gpu_cores:
            if core.wake_at <= cycle:  # else asleep: nothing it can change
                core.step(cycle)
        for core in self.cpu_cores:
            core.step(cycle)
        if self.faults is not None:
            # fault events + timeout retransmits enqueue before injection,
            # the same ordering the cores' own sends observe
            self.faults.on_cycle(cycle)
        self.fabric.step(cycle)
        if self.telemetry is not None:
            self.telemetry.on_cycle(cycle)
        self.cycle += 1

    def run(self, cycles: int) -> None:
        for _ in range(cycles):
            self.step()

    def kernel_boundary(self) -> None:
        """Software-coherence kernel boundary: flush GPU L1s and drop every
        LLC core pointer (Section IV, coherence implications)."""
        self.kernel_flushes += 1
        self.coherence.kernel_boundary(self.cycle)

    def scheduler_stats(self) -> Dict[str, int]:
        """How many GPU core-steps and memory-node steps ran and how many
        the endpoint scheduler skipped (asleep on a known stall); on the vector
        backend also the Python calls its memory lanes cost — delegation
        scans run (a node whose trigger did not fire, or with no
        delegatable reply queued, runs none)."""
        ran = sum(core.steps for core in self.gpu_cores)
        mem_ran = sum(mem.steps for mem in self.memory_nodes)
        stats = {
            "gpu_core_steps": ran,
            "gpu_core_steps_skipped": self.cycle * len(self.gpu_cores) - ran,
            "mem_node_steps": mem_ran,
            "mem_node_steps_skipped": self.cycle * len(self.memory_nodes) - mem_ran,
        }
        if self.backend == "vector":
            stats["mem_nic_delegation_scans"] = sum(
                mem.nic.delegation_scans for mem in self.memory_nodes)
        return stats

