"""Configuration dataclasses for the simulated CPU-GPU architecture.

The defaults reproduce Table I of the paper: a 64-node system with 40 GPU
cores, 16 CPU cores and 8 memory nodes on an 8x8 mesh with a 16-byte channel
width, 2 VCs of 4 flits each, CPU-over-GPU priority, and a GDDR5 memory
system behind FR-FCFS controllers.

Everything the experiments sweep (topology, layout, routing, mechanism,
cache sizes, channel width, VC organisation, node mix) is a field here so a
single ``SystemConfig`` fully describes a simulation.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict


class Topology(str, enum.Enum):
    """NoC topologies evaluated in the paper (Sections II, III-B and VII)."""

    MESH = "mesh"
    CROSSBAR = "crossbar"
    FLATTENED_BUTTERFLY = "flattened_butterfly"
    DRAGONFLY = "dragonfly"


class RoutingPolicy(str, enum.Enum):
    """Routing policies (Sections III-B and V).

    ``CDR`` uses a different dimension order per traffic class; which order
    each class uses is configured by ``NocConfig.request_order`` and
    ``NocConfig.reply_order``.
    """

    CDR = "cdr"          # class-based deterministic routing (DOR per class)
    DYXY = "dyxy"        # congestion-aware adaptive (DyXY)
    FOOTPRINT = "footprint"  # adaptiveness-regulating adaptive routing
    HARE = "hare"        # history-aware adaptive routing


class DimensionOrder(str, enum.Enum):
    XY = "xy"
    YX = "yx"


class Layout(str, enum.Enum):
    """Chip layouts of Figure 1."""

    BASELINE = "baseline"   # Fig. 1a: memory column between CPUs and GPUs
    EDGE = "edge"           # Fig. 1b: memory nodes in the top row
    CLUSTERED = "clustered"  # Fig. 1c: CPU cores clustered together
    DISTRIBUTED = "distributed"  # Fig. 1d: core types spread over the chip


class Mechanism(str, enum.Enum):
    """Reply-delivery mechanisms compared throughout the evaluation."""

    BASELINE = "baseline"
    DELEGATED_REPLIES = "delegated_replies"
    REALISTIC_PROBING = "realistic_probing"


class CtaScheduler(str, enum.Enum):
    """CTA-to-SM assignment policies (Section VII, Fig. 15)."""

    ROUND_ROBIN = "round_robin"
    DISTRIBUTED = "distributed"


class L1Organization(str, enum.Enum):
    """GPU L1 organisations (Section III-A and Fig. 15)."""

    PRIVATE = "private"
    DC_L1 = "dc_l1"      # statically shared: 4 slices per 8-core cluster
    DYNEB = "dyneb"      # dynamically selects shared or private


@dataclass
class NocConfig:
    """Network-on-chip parameters (Table I plus mechanism-level knobs)."""

    topology: Topology = Topology.MESH
    routing: RoutingPolicy = RoutingPolicy.CDR
    request_order: DimensionOrder = DimensionOrder.YX
    reply_order: DimensionOrder = DimensionOrder.XY
    channel_width_bytes: int = 16
    vcs_per_port: int = 2
    vc_depth_flits: int = 4
    router_pipeline_cycles: int = 4
    link_cycles: int = 1
    #: physically separate request and reply networks (the baseline); when
    #: False both classes share one physical network via virtual networks.
    separate_physical_networks: bool = True
    #: VCs per virtual network when sharing one physical network.  AVCP
    #: asymmetrically splits these between request and reply traffic.
    request_vcs: int = 2
    reply_vcs: int = 2
    #: memory-node reply injection buffer capacity, in flits.  When the
    #: buffer is full the memory node *blocks* (Figure 3).
    mem_injection_buffer_flits: int = 36
    #: endpoint injection queue capacity for compute nodes, in packets.
    node_injection_queue_packets: int = 16
    #: bandwidth multiplier applied to every link (2.0 doubles NoC bandwidth
    #: by letting each link move 2 flits/cycle, as in Fig. 5).
    bandwidth_factor: float = 1.0
    #: CPU packets win switch allocation over GPU packets when True.
    cpu_priority: bool = True

    def flits_for(self, payload_bytes: int) -> int:
        """Number of flits for a packet carrying ``payload_bytes`` of data.

        One header flit plus enough data flits for the payload; a
        metadata-only packet (``payload_bytes == 0``) is a single flit.
        """
        if payload_bytes <= 0:
            return 1
        data = -(-payload_bytes // self.channel_width_bytes)
        return 1 + data


@dataclass
class GpuCacheConfig:
    """GPU L1 cache parameters (Table I)."""

    size_bytes: int = 48 * 1024
    assoc: int = 4
    line_bytes: int = 128
    mshrs: int = 32
    hit_latency: int = 4
    #: max delegated requests buffered at a GPU core (Section IV).
    frq_entries: int = 8

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.assoc * self.line_bytes)


@dataclass
class CpuCacheConfig:
    """CPU L1 cache parameters (Table I)."""

    size_bytes: int = 32 * 1024
    assoc: int = 4
    line_bytes: int = 64
    mshrs: int = 16
    hit_latency: int = 3

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.assoc * self.line_bytes)


@dataclass
class LlcConfig:
    """Shared LLC parameters (Table I): 1 MB slice per memory controller."""

    slice_size_bytes: int = 1024 * 1024
    assoc: int = 16
    line_bytes: int = 128
    hit_latency: int = 20
    mshrs: int = 64
    #: LLC request input queue depth (requests wait here after ejection).
    input_queue: int = 32
    #: invalidate core pointers on write-through (Section IV coherence
    #: rule).  Disabling this is an *ablation*: stale pointers can then
    #: delegate to cores holding outdated lines, trading correctness
    #: discipline for a measurement of how much the rule costs.
    pointer_invalidate_on_write: bool = True

    @property
    def sets_per_slice(self) -> int:
        return self.slice_size_bytes // (self.assoc * self.line_bytes)


@dataclass
class DramConfig:
    """GDDR5 timing parameters in memory-controller cycles (Table I)."""

    banks: int = 16
    t_cl: int = 12
    t_rp: int = 12
    t_rc: int = 40
    t_ras: int = 28
    t_rcd: int = 12
    t_rrd: int = 6
    t_ccd: int = 2
    t_wr: int = 12
    #: data-burst cycles per 128 B access; sets peak per-controller bandwidth.
    burst_cycles: int = 4
    row_bytes: int = 2048
    queue_depth: int = 32


@dataclass
class GpuCoreConfig:
    """GPU SM model parameters (Table I, scaled-down knobs for simulation)."""

    warps: int = 48
    #: memory instructions issued per warp slot per cycle.
    issue_width: int = 1
    #: instructions retired per issued memory operation (amortises the
    #: compute instructions between memory operations).
    insts_per_mem_op: int = 8


@dataclass
class CpuCoreConfig:
    """CPU traffic model parameters (Netrace-style)."""

    max_outstanding: int = 8


@dataclass
class DelegationConfig:
    """Delegated Replies policy knobs (Section IV)."""

    enabled: bool = False
    #: delegate only when the reply network cannot accept traffic this cycle
    #: (the paper's policy).  When False, delegate every delegatable reply
    #: (an ablation).
    only_when_blocked: bool = True
    #: maximum number of delegations issued per memory node per cycle;
    #: effectively bounded by the 1 flit/cycle request injection link.
    max_delegations_per_cycle: int = 2
    #: watchdog for delayed remote hits: a delegated request parked on an
    #: outstanding MSHR entry for longer than this is re-sent to the LLC
    #: with the DNF bit.  Breaks the (rare) circular-delegation case where
    #: two cores' requests for the same block are delegated to each other
    #: after an eviction/re-request race.
    delayed_hit_timeout: int = 4096
    #: merge same-block FRQ entries (the design point the paper *rejects*
    #: because only 4.8% of entries share a block; modelled here as an
    #: ablation — merged entries serve every merged requester with one L1
    #: probe but still send one unicast reply each).
    frq_merge: bool = False


@dataclass
class ProbingConfig:
    """Realistic Probing (RP) policy knobs (Section III-A)."""

    enabled: bool = False
    #: number of remote L1s probed per predicted-shared miss.
    probe_width: int = 6
    #: fraction of misses the sharing predictor flags as probe-worthy.
    #: RP's predictor is imperfect; the paper reports RP inflates NoC
    #: request count by 5.9x.
    predictor_threshold: float = 0.5


@dataclass
class TelemetryConfig:
    """Observability knobs (the :mod:`repro.telemetry` subsystem).

    Telemetry is strictly read-only instrumentation: enabling it must
    never change the simulation's counters.  It does add to the result
    *payload* (stall breakdown, telemetry metrics), so sweep cache keys
    (:meth:`repro.sweep.jobs.JobSpec.key`) ignore this section only
    while ``enabled`` is False.
    """

    enabled: bool = False
    #: instrumentation depth.  ``"light"`` (the default) is the cheap
    #: always-on tier: ring-buffer events, counter-array latency
    #: histograms, windowed probes, clogging detection, the flight
    #: recorder and the metrics registry.  ``"full"`` adds exact
    #: per-cycle stall attribution (why each blocked head worm cannot
    #: advance) — the per-blocked-VC accounting that dominates telemetry
    #: cost on saturated meshes.  The probe-time blame chain walker that
    #: attaches ``root_cause`` records to clogging episodes runs in both
    #: modes (it is windowed, not per-cycle).
    mode: str = "light"
    #: per-packet trace destination; empty = aggregate-only (histograms,
    #: window probes and clogging detection, but no per-packet I/O).
    trace_path: str = ""
    #: ``jsonl`` (greppable) or ``bin`` (compact packed structs).
    trace_format: str = "jsonl"
    #: fraction of packets traced, decided by a stateless hash of the
    #: packet id so every lifecycle event of a packet is kept or dropped
    #: together (and the simulation's RNG streams are untouched).
    sample_rate: float = 1.0
    #: cycles per windowed probe of link/buffer/injection state.
    probe_interval: int = 200
    #: clogging-event detector: a memory node whose windowed reply-path
    #: pressure (max of injection-buffer occupancy and blocked-cycle
    #: fraction) stays >= this threshold ...
    clog_threshold: float = 0.9
    #: ... for at least this many consecutive windows is one episode.
    clog_min_windows: int = 2
    #: flight-recorder ring capacity in events per network: the most
    #: recent ``ring_events`` packet events are always retained, and
    #: dumped (as ``RDMP`` files under ``flight_dir``) when the clogging
    #: detector opens an episode or a fault fires.  The retained tuples
    #: are live objects the allocator keeps cycling through, so
    #: oversized rings cost real cache pressure on the simulation itself
    #: — 512 per network (~1k events, a ~20-cycle lead-up window on a
    #: saturated 8x8 mesh) keeps light mode under the telemetry-overhead
    #: budget.  Raise it (with ``mode="full"`` money already on the
    #: table) when a deeper flight window matters more than hot-path
    #: cost.
    ring_events: int = 512
    #: directory for flight-recorder dumps; empty = keep the ring in
    #: memory but never write dump files.
    flight_dir: str = ""


@dataclass
class SystemConfig:
    """Complete description of one simulated system."""

    mesh_width: int = 8
    mesh_height: int = 8
    n_gpu: int = 40
    n_cpu: int = 16
    n_mem: int = 8
    layout: Layout = Layout.BASELINE
    mechanism: Mechanism = Mechanism.BASELINE
    l1_org: L1Organization = L1Organization.PRIVATE
    cta_scheduler: CtaScheduler = CtaScheduler.ROUND_ROBIN
    noc: NocConfig = field(default_factory=NocConfig)
    gpu_l1: GpuCacheConfig = field(default_factory=GpuCacheConfig)
    cpu_l1: CpuCacheConfig = field(default_factory=CpuCacheConfig)
    llc: LlcConfig = field(default_factory=LlcConfig)
    dram: DramConfig = field(default_factory=DramConfig)
    gpu_core: GpuCoreConfig = field(default_factory=GpuCoreConfig)
    cpu_core: CpuCoreConfig = field(default_factory=CpuCoreConfig)
    delegation: DelegationConfig = field(default_factory=DelegationConfig)
    probing: ProbingConfig = field(default_factory=ProbingConfig)
    telemetry: TelemetryConfig = field(default_factory=TelemetryConfig)
    seed: int = 42
    #: capacity scale applied to the GPU L1s and the LLC at system build.
    #: The paper simulates one billion instructions; this reproduction runs
    #: windows of a few thousand cycles, so cache capacities (and the
    #: synthetic footprints) are scaled down together to keep residence
    #: times short relative to the window — the standard scaled-working-set
    #: methodology.  Set to 1.0 for full Table I capacities.
    sim_scale: float = 0.125

    def __post_init__(self) -> None:
        total = self.n_gpu + self.n_cpu + self.n_mem
        if total != self.mesh_width * self.mesh_height:
            raise ValueError(
                f"node mix {self.n_gpu}+{self.n_cpu}+{self.n_mem}={total} does "
                f"not fill the {self.mesh_width}x{self.mesh_height} fabric"
            )

    @property
    def n_nodes(self) -> int:
        return self.mesh_width * self.mesh_height

    # A mechanism runs only when ``mechanism`` selects it *and* its
    # section's ``enabled`` switch is on; anything else is the baseline.
    # Simulator, surrogate and design-space decoder all ask here, so they
    # cannot disagree on which machine a config describes.

    @property
    def delegation_active(self) -> bool:
        """Whether this system runs Delegated Replies."""
        selected = self.mechanism is Mechanism.DELEGATED_REPLIES
        return selected and self.delegation.enabled

    @property
    def probing_active(self) -> bool:
        """Whether this system runs Realistic Probing."""
        selected = self.mechanism is Mechanism.REALISTIC_PROBING
        return selected and self.probing.enabled

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible nested dict of every field, in declaration order.

        Enum fields collapse to their string values, so the result
        round-trips through :func:`repro.config.loader.config_from_dict`.
        """

        def convert(value):
            if dataclasses.is_dataclass(value) and not isinstance(value, type):
                return {
                    f.name: convert(getattr(value, f.name))
                    for f in dataclasses.fields(value)
                }
            if isinstance(value, enum.Enum):
                return value.value
            return value

        return convert(self)

    def config_hash(self) -> str:
        """Stable content hash of the full configuration.

        Computed over the canonical (sorted-key, compact) JSON encoding of
        :meth:`to_dict`, so the hash is independent of dict insertion order
        and identical across processes and Python versions.  Two configs
        hash equal iff every field (including nested sections) is equal.
        """
        payload = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def copy(self, **overrides) -> "SystemConfig":
        """Deep copy with top-level field overrides.

        Nested configs passed in ``overrides`` replace the copied ones.
        """
        clone = dataclasses.replace(self)
        for name, value in overrides.items():
            if not hasattr(clone, name):
                raise AttributeError(f"SystemConfig has no field {name!r}")
            setattr(clone, name, value)
        # deep-copy nested dataclasses not explicitly overridden so callers
        # can mutate them without aliasing the original
        for f in dataclasses.fields(clone):
            value = getattr(clone, f.name)
            if dataclasses.is_dataclass(value) and f.name not in overrides:
                setattr(clone, f.name, dataclasses.replace(value))
        return clone


def baseline_config(**overrides) -> SystemConfig:
    """The paper's baseline system (Table I, Fig. 1a, CDR YX-XY)."""
    return SystemConfig().copy(**overrides) if overrides else SystemConfig()


def delegated_replies_config(**overrides) -> SystemConfig:
    """Baseline system with Delegated Replies enabled."""
    cfg = SystemConfig(mechanism=Mechanism.DELEGATED_REPLIES)
    cfg.delegation.enabled = True
    return cfg.copy(**overrides) if overrides else cfg


def realistic_probing_config(**overrides) -> SystemConfig:
    """Baseline system with Realistic Probing (RP) enabled."""
    cfg = SystemConfig(mechanism=Mechanism.REALISTIC_PROBING)
    cfg.probing.enabled = True
    return cfg.copy(**overrides) if overrides else cfg
