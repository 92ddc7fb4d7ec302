"""Metrics: counter snapshots, warmup subtraction and derived results.

Every experiment in the paper reports steady-state rates and ratios.  The
simulator therefore snapshots all raw counters at the end of warmup and
derives results from the *difference* between the final and warmup
snapshots — the measured window only.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.noc.packet import MessageType, NetKind
from repro.sim.system import HeterogeneousSystem
from repro.telemetry.hist import LogHistogram


def _flatten_hist(c: Dict[str, float], prefix: str, buckets: Dict[int, int]) -> None:
    """Write sparse histogram buckets as ``<prefix><idx>`` counter keys.

    Buckets are monotonically increasing counts, so window diffing
    (:func:`diff_counters`) subtracts them bucket-wise like any other
    counter; :func:`_window_hist` rebuilds a histogram from the diff.
    """
    for idx in sorted(buckets):
        c[f"{prefix}{idx}"] = buckets[idx]


def _window_hist(window: Dict[str, float], prefix: str) -> LogHistogram:
    """Rebuild a latency histogram from diffed ``<prefix><idx>`` keys."""
    sparse = {int(k[len(prefix):]): int(v) for k, v in window.items()
              if k.startswith(prefix)}
    return LogHistogram.from_sparse(sparse)


def collect_counters(system: HeterogeneousSystem) -> Dict[str, float]:
    """Flatten every raw counter of the system into one dict."""
    c: Dict[str, float] = {"cycle": system.cycle}

    # GPU cores
    agg = {
        "insts": 0, "mem_ops": 0, "reads": 0, "writes": 0,
        "l1_hit_ops": 0, "l1_miss_ops": 0, "secondary_misses": 0,
        "llc_replies": 0, "c2c_replies": 0,
        "frq_remote_hits": 0, "frq_delayed_hits": 0, "frq_remote_misses": 0,
        "frq_timeout_dnfs": 0, "frq_merged": 0,
        "probes_received": 0, "probe_hits_served": 0, "issue_stalls": 0,
    }
    gpu_data_flits = 0
    gpu_reply_flits = 0
    gpu_hist: Dict[int, int] = {}
    for core in system.gpu_cores:
        core.settle(system.cycle)  # count a sleeping core's skipped retries
        s = core.stats
        for k in agg:
            agg[k] += getattr(s, k)
        for idx, n in s.lat_hist.buckets.items():
            gpu_hist[idx] = gpu_hist.get(idx, 0) + n
        nic = core.nic
        gpu_data_flits += nic.data_flits_received
        gpu_reply_flits += nic.flits_received[1]  # GPU-class flits
    for k, v in agg.items():
        c[f"gpu.{k}"] = v
    _flatten_hist(c, "gpu.lat_hist.", gpu_hist)
    c["gpu.data_flits"] = gpu_data_flits
    c["gpu.frq_merge_opportunities"] = sum(
        core.frq.merge_opportunities for core in system.gpu_cores)
    c["gpu.frq_enqueued"] = sum(core.frq.total_enqueued for core in system.gpu_cores)
    probe_stats = [core.probe.stats for core in system.gpu_cores if core.probe is not None]
    c["rp.probes_sent"] = sum(p.probes_sent for p in probe_stats)
    c["rp.probe_hits"] = sum(p.probe_hits for p in probe_stats)
    c["rp.probe_nacks"] = sum(p.probe_nacks for p in probe_stats)
    c["rp.fallbacks"] = sum(p.fallbacks for p in probe_stats)

    # CPU cores
    for name in ("insts", "mem_ops", "l1_hits", "l1_misses", "stall_cycles",
                 "replies", "total_latency"):
        c[f"cpu.{name}"] = sum(getattr(core.stats, name) for core in system.cpu_cores)
    cpu_hist: Dict[int, int] = {}
    for core in system.cpu_cores:
        for idx, n in core.stats.lat_hist.buckets.items():
            cpu_hist[idx] = cpu_hist.get(idx, 0) + n
    _flatten_hist(c, "cpu.lat_hist.", cpu_hist)

    # memory nodes
    for m in system.memory_nodes:
        m.settle(system.cycle)  # count a sleeping node's skipped steps
    c["mem.blocked_cycles"] = 0
    c["mem.observed_cycles"] = 0
    c["mem.delegations"] = 0
    for name in ("requests", "gpu_reads", "cpu_reads", "writes",
                 "dnf_requests", "replies_sent", "delegatable_replies"):
        c[f"mem.{name}"] = sum(getattr(m.stats, name) for m in system.memory_nodes)
    c["llc.hits"] = sum(m.llc.stats.hits for m in system.memory_nodes)
    c["llc.misses"] = sum(m.llc.stats.misses for m in system.memory_nodes)
    c["llc.stalled"] = sum(m.llc.stats.stalled_cycles for m in system.memory_nodes)
    c["dram.served"] = sum(m.controller.served for m in system.memory_nodes)
    c["dram.row_hits"] = sum(m.controller.row_hits for m in system.memory_nodes)
    mem_reply_flits = 0
    for m in system.memory_nodes:
        nic = m.nic
        c["mem.blocked_cycles"] += nic.blocked_cycles
        c["mem.observed_cycles"] += nic.observed_cycles
        c["mem.delegations"] += nic.delegations
        mem_reply_flits += nic.flits_injected_net[NetKind.REPLY]
    c["mem.reply_flits_injected"] = mem_reply_flits

    # NoC
    req_net = system.fabric.request_net
    rep_net = system.fabric.reply_net
    c["noc.req_flits_routed"] = req_net.total_flits_routed()
    c["noc.rep_flits_routed"] = rep_net.total_flits_routed()
    c["noc.req_packets"] = sum(
        nic.packets_sent_net[NetKind.REQUEST] for nic in system.fabric.nics)
    c["noc.rep_packets"] = sum(
        nic.packets_sent_net[NetKind.REPLY] for nic in system.fabric.nics)
    for net, prefix in ((req_net, "req"), (rep_net, "rep")):
        for mt in MessageType:
            n = net.delivered_by_type.get(int(mt), 0)
            if n:
                c[f"noc.{prefix}.{mt.name}"] = n

    # fault injection (keys exist only when a fault plan is installed, so
    # plain runs' counter dicts stay bit-identical)
    fc = system.faults
    if fc is not None:
        c["fault.drops"] = fc.drops
        c["fault.discarded"] = fc.discarded
        c["fault.retransmits"] = fc.retransmits
        c["fault.fallback_dnfs"] = fc.fallback_dnfs
        c["fault.recovered"] = fc.recovered
        c["fault.lost"] = fc.lost
        c["fault.watchdog_fires"] = fc.watchdog_fires
        c["fault.links_downed"] = fc.links_downed
    return c


def diff_counters(
    end: Dict[str, float], start: Optional[Dict[str, float]]
) -> Dict[str, float]:
    if start is None:
        return dict(end)
    return {k: end[k] - start.get(k, 0.0) for k in end}


@dataclass
class SimulationResult:
    """Derived steady-state metrics for one simulation window."""

    cycles: int
    counters: Dict[str, float] = field(repr=False, default_factory=dict)
    n_gpu: int = 0
    n_cpu: int = 0
    n_mem: int = 0

    # headline metrics
    gpu_ipc: float = 0.0
    cpu_ipc: float = 0.0
    cpu_latency_avg: float = 0.0
    # reply-latency percentiles from the windowed log-bucketed histograms
    # (bucket-midpoint values, relative error <= 2^-sub_bits)
    cpu_latency_p50: float = 0.0
    cpu_latency_p95: float = 0.0
    cpu_latency_p99: float = 0.0
    gpu_latency_p50: float = 0.0
    gpu_latency_p95: float = 0.0
    gpu_latency_p99: float = 0.0
    gpu_data_rate: float = 0.0          # data flits / cycle / GPU core
    mem_blocking_rate: float = 0.0
    mem_reply_link_utilization: float = 0.0
    l1_miss_rate: float = 0.0
    remote_hit_fraction: float = 0.0    # of delegated requests
    delegated_fraction: float = 0.0     # of L1 read misses
    noc_request_packets: float = 0.0
    # fault injection (all zero unless a FaultPlan was installed)
    fault_retransmits: float = 0.0
    fault_lost: float = 0.0
    fault_recovery_p50: float = 0.0
    fault_recovery_p99: float = 0.0
    #: measured-window stall attribution (telemetry only): victim group
    #: ("CPU" | "GPU" | "mem") -> {stall class: blocked head-worm cycles}.
    #: Empty when telemetry or stall attribution is disabled — kept out of
    #: ``counters`` so traced and untraced runs stay bit-identical there.
    stall_breakdown: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: telemetry metrics-registry snapshot (event counts, windows, clog
    #: episodes, flight dumps, plus anything subsystems registered).
    #: Empty when telemetry is disabled — kept out of ``counters`` for
    #: the same bit-identity reason as ``stall_breakdown``.
    telemetry_metrics: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> Dict:
        """JSON-compatible dict of every field (for the sweep result cache).

        The encoding is lossless: ints stay ints, floats round-trip exactly
        through ``json`` (repr-based), so ``from_dict(to_dict())`` rebuilds a
        bit-identical result.
        """
        return {
            f.name: (dict(self.counters) if f.name == "counters"
                     else getattr(self, f.name))
            for f in dataclasses.fields(self)
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "SimulationResult":
        """Rebuild from :meth:`to_dict` output.

        Unknown keys are ignored so cached sweep results written by
        newer code (with extra fields) still load; missing fields fall
        back to their dataclass defaults.
        """
        names = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in names})

    @property
    def llc_direct_fraction(self) -> float:
        return max(0.0, 1.0 - self.delegated_fraction)

    def miss_breakdown(self) -> Dict[str, float]:
        """Fig. 14 categories as fractions of L1 read misses."""
        served = (
            self.counters.get("gpu.frq_remote_hits", 0)
            + self.counters.get("gpu.frq_delayed_hits", 0)
            + self.counters.get("gpu.frq_remote_misses", 0)
        )
        primary = max(
            1.0,
            self.counters.get("gpu.llc_replies", 0)
            + self.counters.get("gpu.c2c_replies", 0),
        )
        remote_hit = (
            self.counters.get("gpu.frq_remote_hits", 0)
            + self.counters.get("gpu.frq_delayed_hits", 0)
        )
        remote_miss = self.counters.get("gpu.frq_remote_misses", 0)
        return {
            "llc": max(0.0, 1.0 - served / primary),
            "remote_hit": remote_hit / primary,
            "remote_miss": remote_miss / primary,
        }


def derive_result(system: HeterogeneousSystem, window: Dict[str, float]) -> SimulationResult:
    cycles = max(1, int(window["cycle"]))
    cfg = system.cfg
    res = SimulationResult(cycles=cycles, counters=window, n_gpu=cfg.n_gpu,
                           n_cpu=cfg.n_cpu, n_mem=cfg.n_mem)
    res.gpu_ipc = window.get("gpu.insts", 0) / cycles / max(1, cfg.n_gpu)
    if system.cpu_cores:
        res.cpu_ipc = window.get("cpu.insts", 0) / cycles / len(system.cpu_cores)
        replies = window.get("cpu.replies", 0)
        res.cpu_latency_avg = window.get("cpu.total_latency", 0) / replies if replies else 0.0
        cpu_hist = _window_hist(window, "cpu.lat_hist.")
        if cpu_hist.count:
            res.cpu_latency_p50 = cpu_hist.percentile(50)
            res.cpu_latency_p95 = cpu_hist.percentile(95)
            res.cpu_latency_p99 = cpu_hist.percentile(99)
    gpu_hist = _window_hist(window, "gpu.lat_hist.")
    if gpu_hist.count:
        res.gpu_latency_p50 = gpu_hist.percentile(50)
        res.gpu_latency_p95 = gpu_hist.percentile(95)
        res.gpu_latency_p99 = gpu_hist.percentile(99)
    res.gpu_data_rate = window.get("gpu.data_flits", 0) / cycles / max(1, cfg.n_gpu)
    observed = window.get("mem.observed_cycles", 0)
    res.mem_blocking_rate = window.get("mem.blocked_cycles", 0) / observed if observed else 0.0
    bw = cfg.noc.link_flits_per_cycle
    res.mem_reply_link_utilization = window.get(
        "mem.reply_flits_injected", 0
    ) / (cycles * max(1, cfg.n_mem) * bw)
    reads = window.get("gpu.reads", 0)
    res.l1_miss_rate = window.get("gpu.l1_miss_ops", 0) / reads if reads else 0.0
    # Fig. 14 denominator: primary L1 misses, i.e. requests that produced a
    # data reply (one per transaction, from the LLC or a remote core)
    primary = window.get("gpu.llc_replies", 0) + window.get("gpu.c2c_replies", 0)
    delegations = window.get("mem.delegations", 0)
    res.delegated_fraction = delegations / primary if primary else 0.0
    served = (
        window.get("gpu.frq_remote_hits", 0)
        + window.get("gpu.frq_delayed_hits", 0)
        + window.get("gpu.frq_remote_misses", 0)
    )
    remote_ok = window.get("gpu.frq_remote_hits", 0) + window.get(
        "gpu.frq_delayed_hits", 0
    )
    res.remote_hit_fraction = remote_ok / served if served else 0.0
    res.noc_request_packets = window.get("noc.req_packets", 0)
    fc = system.faults
    if fc is not None:
        res.fault_retransmits = window.get("fault.retransmits", 0)
        res.fault_lost = window.get("fault.lost", 0)
        # recovery-time percentiles cover the whole run (recoveries are
        # rare events; a warmup-only split would usually be empty)
        res.fault_recovery_p50 = fc.recovery_percentile(50)
        res.fault_recovery_p99 = fc.recovery_percentile(99)
    if system.telemetry is not None:
        res.stall_breakdown = system.telemetry.stall_breakdown()
        res.telemetry_metrics = system.telemetry.metrics_snapshot()
    return res
