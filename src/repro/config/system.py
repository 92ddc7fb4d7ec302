"""Configuration dataclasses for the simulated CPU-GPU architecture.

The defaults reproduce Table I of the paper: a 64-node system with 40 GPU
cores, 16 CPU cores and 8 memory nodes on an 8x8 mesh with a 16-byte channel
width, 2 VCs of 4 flits each, CPU-over-GPU priority, and a GDDR5 memory
system behind FR-FCFS controllers.

Everything the experiments sweep (topology, layout, routing, mechanism,
cache sizes, channel width, VC organisation, node mix) is a field here so a
single ``SystemConfig`` fully describes a simulation, and this module is
the only place that knows four things about such a design point:

* **which mechanism runs** — ``SystemConfig.mechanism`` is the whole
  switch; the command-line spellings (:data:`MECHANISMS`) and
  :func:`mechanism_config` live next to the enum.
* **what is legal** — each field states its range or choices where it is
  declared (:func:`_spec`; an undecorated number is ``>= 1``) and
  :meth:`SystemConfig.validate` checks them all, plus the cross-field
  rules, wherever a config crosses into execution (``config_from_dict``,
  ``JobSpec.make``, ``HeterogeneousSystem``).
* **what is identity** — :func:`canonical_config` leaves out what cannot
  change the result (a section's or a field's ``live_when``,
  ``identity=False``);
  ``config_hash()`` and ``JobSpec.key()`` both hash that form.
* **how a field is set from data** — :meth:`SystemConfig.update`, for a
  JSON file, a figure's edit and a ``--set PATH=VALUE`` flag alike.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Tuple


class ConfigError(ValueError):
    """A configuration names an unknown field or holds an illegal value."""


def _spec(default, **rule):
    """A leaf field that states what is legal: ``lo``/``hi`` (inclusive
    bounds; a number without them is ``>= 1``, ``lo=None`` lifts that),
    ``above`` (exclusive lower bound), ``whole`` (a float holding a whole
    number), ``choices`` (a string's legal values) — or what it is to the
    identity: ``identity=False`` (the value cannot change a result),
    ``live_when`` (the one condition under which the field is read: a
    dotted path and the value it must hold), ``also_live_when`` (a
    second condition, besides its section's ``live_when``, under which
    the field is read)."""
    return field(default=default, metadata=rule)


def _section(cls, live_when: Tuple[str, Any]):
    """A nested section that is read only while the field at the dotted
    path ``live_when[0]`` holds ``live_when[1]``; otherwise it is inert
    and :func:`canonical_config` leaves it out of the identity (all but
    the fields whose own ``also_live_when`` holds)."""
    return field(default_factory=cls, metadata={"live_when": live_when})


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
    """Reply-delivery mechanisms compared throughout the evaluation.

    ``Mechanism(name)`` also accepts the command-line spellings of
    :data:`MECHANISMS` (``rp``, ``dr``).
    """

    BASELINE = "baseline"
    DELEGATED_REPLIES = "delegated_replies"
    REALISTIC_PROBING = "realistic_probing"

    @classmethod
    def _missing_(cls, value):
        return _BY_CLI_SPELLING.get(value) if isinstance(value, str) else None


#: the command-line spellings, in the order the figures list them
MECHANISMS = ("baseline", "rp", "dr")
_BY_CLI_SPELLING = dict(
    zip(
        MECHANISMS,
        (
            Mechanism.BASELINE,
            Mechanism.REALISTIC_PROBING,
            Mechanism.DELEGATED_REPLIES,
        ),
    )
)


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
    """Network-on-chip parameters (Table I plus mechanism-level knobs).

    Table I's CPU-over-GPU priority is not a field: every arbiter ranks
    CPU packets first and nothing can switch that off.
    """

    topology: Topology = Topology.MESH
    routing: RoutingPolicy = RoutingPolicy.CDR
    request_order: DimensionOrder = DimensionOrder.YX
    reply_order: DimensionOrder = DimensionOrder.XY
    channel_width_bytes: int = 16
    #: VCs per port of each physical network when there are two.
    vcs_per_port: int = _spec(
        2, live_when=("noc.separate_physical_networks", True)
    )
    vc_depth_flits: int = 4
    router_pipeline_cycles: int = 4
    link_cycles: int = 1
    #: physically separate request and reply networks (the baseline); when
    #: False both classes share one physical network via virtual networks.
    separate_physical_networks: bool = True
    #: VCs per virtual network when sharing one physical network.  AVCP
    #: asymmetrically splits these between request and reply traffic.
    request_vcs: int = _spec(
        2, live_when=("noc.separate_physical_networks", False)
    )
    reply_vcs: int = _spec(
        2, live_when=("noc.separate_physical_networks", False)
    )
    #: memory-node reply injection buffer capacity, in flits.  When the
    #: buffer is full the memory node *blocks* (Figure 3).
    mem_injection_buffer_flits: int = 36
    #: endpoint injection queue capacity for compute nodes, in packets.
    node_injection_queue_packets: int = 16
    #: bandwidth multiplier applied to every link (2.0 doubles NoC bandwidth
    #: by letting each link move 2 flits/cycle, as in Fig. 5).
    bandwidth_factor: float = _spec(1.0, lo=1, whole=True)

    @property
    def link_flits_per_cycle(self) -> int:
        """Flits every link moves per cycle: ``bandwidth_factor`` as the
        whole number the fabrics and metrics both count in."""
        return max(1, round(self.bandwidth_factor))

    # The fabric as both kernels and the area model read it: nothing
    # else looks at the VC and pipeline fields above.

    @property
    def physical_networks(self) -> int:
        """Two (a request and a reply network) or one shared by both."""
        return 2 if self.separate_physical_networks else 1

    @property
    def network_vcs(self) -> int:
        """VCs per port of one physical network."""
        if self.separate_physical_networks:
            return self.vcs_per_port
        return self.request_vcs + self.reply_vcs

    @property
    def vc_ranges(self) -> Tuple[Tuple[int, int], Tuple[int, int]]:
        """The ``(lo, hi)`` VCs a request / a reply may use on its
        physical network, indexed by ``NetKind``: all of them on its own
        network, its virtual network's share of a shared one."""
        if self.separate_physical_networks:
            return ((0, self.vcs_per_port),) * 2
        return (0, self.request_vcs), (self.request_vcs, self.network_vcs)

    @property
    def hop_cycles(self) -> int:
        """Cycles a head flit spends per hop: the router pipeline, whose
        last stage overlaps the link traversal."""
        return self.router_pipeline_cycles - 1 + self.link_cycles

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
    frq_entries: int = _spec(
        8, live_when=("mechanism", Mechanism.DELEGATED_REPLIES)
    )

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
    """GDDR5 timing parameters in memory-controller cycles (Table I).

    The bank model times an access from ``t_rp`` / ``t_rcd`` / ``t_cl`` /
    ``t_ccd`` / ``t_wr`` and the burst.  Table I also lists tRC = 40,
    tRAS = 28 and tRRD = 6; the model never reads them, so they are not
    fields.
    """

    banks: int = 16
    t_cl: int = 12
    t_rp: int = 12
    t_rcd: int = 12
    t_ccd: int = 2
    t_wr: int = 12
    #: data-burst cycles per 128 B access; sets peak per-controller bandwidth.
    burst_cycles: int = 4
    row_bytes: int = 2048
    queue_depth: int = 32


@dataclass
class GpuCoreConfig:
    """GPU SM model parameters (Table I, scaled-down knobs for simulation).

    The compute between a warp's memory operations is not a field here:
    each GPU benchmark profile's ``compute_gap`` states it.
    """

    warps: int = 48
    #: memory instructions issued per warp slot per cycle.
    issue_width: int = 1


@dataclass
class CpuCoreConfig:
    """CPU traffic model parameters (Netrace-style)."""

    max_outstanding: int = 8


@dataclass
class DelegationConfig:
    """Delegated Replies policy knobs (Section IV); read only while
    ``SystemConfig.mechanism`` is ``DELEGATED_REPLIES`` — all but the
    watchdog, which Realistic Probing's parked probes run under too."""

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
    #: after an eviction/re-request race.  A probe that finds its block
    #: outstanding parks the same way, so the watchdog expires those too.
    delayed_hit_timeout: int = _spec(
        4096, also_live_when=("mechanism", Mechanism.REALISTIC_PROBING)
    )
    #: merge same-block FRQ entries (the design point the paper *rejects*
    #: because only 4.8% of entries share a block; modelled here as an
    #: ablation — merged entries serve every merged requester with one L1
    #: probe but still send one unicast reply each).
    frq_merge: bool = False


@dataclass
class ProbingConfig:
    """Realistic Probing (RP) policy knobs (Section III-A); read only
    while ``SystemConfig.mechanism`` is ``REALISTIC_PROBING``."""

    #: number of remote L1s probed per predicted-shared miss.
    probe_width: int = 6
    #: fraction of misses the sharing predictor flags as probe-worthy.
    #: RP's predictor is imperfect; the paper reports RP inflates NoC
    #: request count by 5.9x.
    predictor_threshold: float = _spec(0.5, lo=0.0, hi=1.0)


@dataclass
class TelemetryConfig:
    """Observability knobs (the :mod:`repro.telemetry` subsystem).

    Telemetry is strictly read-only instrumentation: enabling it must
    never change the simulation's counters.  It does add to the result
    *payload* (stall breakdown, telemetry metrics), so the section is
    part of a design point's identity while ``enabled`` — all but the
    two output paths, which only say where the payload is written.
    """

    enabled: bool = False
    #: instrumentation depth.  ``"light"`` (the default) is the cheap
    #: always-on tier: ring-buffer events, counter-array latency
    #: histograms, windowed probes, clogging detection, the flight
    #: recorder and the metrics registry.  ``"full"`` adds exact
    #: per-cycle stall attribution (why each blocked head worm cannot
    #: advance), charged when a blocked head's class changes or it moves.
    #: The probe-time blame chain walker that attaches ``root_cause``
    #: records to clogging episodes runs in both modes (it is windowed,
    #: not per-cycle).
    mode: str = _spec("light", choices=("light", "full"))
    #: per-packet trace destination; empty = aggregate-only (histograms,
    #: window probes and clogging detection, but no per-packet I/O).
    trace_path: str = _spec("", identity=False)
    #: fraction of packets traced, decided by a stateless hash of the
    #: packet id so every lifecycle event of a packet is kept or dropped
    #: together (and the simulation's RNG streams are untouched).
    sample_rate: float = _spec(1.0, lo=0.0, hi=1.0)
    #: cycles per windowed probe of link/buffer/injection state.
    probe_interval: int = 200
    #: clogging-event detector: a memory node whose windowed reply-path
    #: pressure (max of injection-buffer occupancy and blocked-cycle
    #: fraction) stays >= this threshold (above 1: never; silences it) ...
    clog_threshold: float = _spec(0.9, lo=0.0)
    #: ... for at least this many consecutive windows is one episode.
    clog_min_windows: int = 2
    #: flight-recorder ring capacity in events per network: the most
    #: recent ``ring_events`` packet events are always retained, and
    #: dumped (as small trace files under ``flight_dir``) when the clogging
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
    flight_dir: str = _spec("", identity=False)


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
    delegation: DelegationConfig = _section(
        DelegationConfig, live_when=("mechanism", Mechanism.DELEGATED_REPLIES)
    )
    probing: ProbingConfig = _section(
        ProbingConfig, live_when=("mechanism", Mechanism.REALISTIC_PROBING)
    )
    telemetry: TelemetryConfig = _section(
        TelemetryConfig, live_when=("telemetry.enabled", True)
    )
    seed: int = _spec(42, lo=None)  # any integer
    #: capacity scale applied to the GPU L1s and the LLC at system build
    #: (``_apply_sim_scale``, its only reader).  The paper simulates one
    #: billion instructions; this reproduction runs windows of a few
    #: thousand cycles, so cache capacities are scaled down to keep
    #: residence times short relative to the window.  The synthetic
    #: footprints do not scale.  Set to 1.0 for full Table I capacities.
    sim_scale: float = _spec(0.125, lo=None, above=0.0, hi=1.0)

    def __post_init__(self) -> None:
        self._check_node_mix()

    def _check_node_mix(self) -> None:
        total = self.n_gpu + self.n_cpu + self.n_mem
        if total != self.mesh_width * self.mesh_height:
            raise ConfigError(
                f"node mix n_gpu+n_cpu+n_mem = {self.n_gpu}+{self.n_cpu}+"
                f"{self.n_mem} = {total} does not fill the mesh_width x "
                f"mesh_height = {self.mesh_width}x{self.mesh_height} fabric"
            )

    @property
    def n_nodes(self) -> int:
        return self.mesh_width * self.mesh_height

    # ``mechanism`` is the whole switch.  Simulator and area model both
    # ask here, so they cannot disagree on which machine a config
    # describes.

    @property
    def delegation_active(self) -> bool:
        """Whether this system runs Delegated Replies."""
        return self.mechanism is Mechanism.DELEGATED_REPLIES

    @property
    def probing_active(self) -> bool:
        """Whether this system runs Realistic Probing."""
        return self.mechanism is Mechanism.REALISTIC_PROBING

    def validate(self) -> "SystemConfig":
        """Check every field against its declared range or choices, then
        the cross-field rules; returns ``self``.

        Raises a one-line :class:`ConfigError` naming the dotted path of
        the first offending field.  One pass, no copies: cheap enough to
        run at every boundary a config crosses into execution.
        """
        _validate_fields(self, "")
        self._check_node_mix()
        for path, cache, size in (
            ("gpu_l1.size_bytes", self.gpu_l1, self.gpu_l1.size_bytes),
            ("cpu_l1.size_bytes", self.cpu_l1, self.cpu_l1.size_bytes),
            ("llc.slice_size_bytes", self.llc, self.llc.slice_size_bytes),
        ):
            one_set = cache.assoc * cache.line_bytes
            if size < one_set:
                raise ConfigError(
                    f"{path} must hold at least one set "
                    f"(assoc x line_bytes = {one_set}), got {size!r}"
                )
        worst_reply = self.noc.flits_for(
            max(self.gpu_l1.line_bytes, self.cpu_l1.line_bytes)
        )
        if self.noc.mem_injection_buffer_flits < worst_reply:
            raise ConfigError(
                "noc.mem_injection_buffer_flits must hold one worst-case "
                f"reply ({worst_reply} flits), got "
                f"{self.noc.mem_injection_buffer_flits!r}"
            )
        noc = self.noc
        # minimal dragonfly routes have a channel-dependency cycle, which
        # one VC per class deadlocks on
        classes = (("vcs_per_port",) if noc.separate_physical_networks
                   else ("request_vcs", "reply_vcs"))
        for name in classes:
            if noc.topology is Topology.DRAGONFLY and getattr(noc, name) < 2:
                raise ConfigError(
                    f"noc.{name} must be at least 2 on a dragonfly, whose "
                    f"minimal routes deadlock on one VC, got "
                    f"{getattr(noc, name)!r}"
                )
        return self

    def update(self, data: Mapping[str, Any]) -> "SystemConfig":
        """Set fields from a nested plain dict; returns ``self``.

        The one way data becomes configuration — a JSON file, a figure's
        edit (``{"noc": {"vcs_per_port": 4}}``), a ``--set`` flag.  An
        unknown key is a :class:`ConfigError` (a typo must never fall
        back to a default), enum fields accept their string values and
        float fields whole numbers; ranges are :meth:`validate`'s job.
        """
        _update_fields(self, data, "")
        return self

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible nested dict of every field, in declaration order.

        Enum fields collapse to their string values, so the result
        round-trips through :func:`config_from_dict`.
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
        """Stable content hash of the design point.

        Computed over the sorted-key, compact JSON encoding of
        :func:`canonical_config`, so the hash is independent of dict
        insertion order and identical across processes and Python
        versions.  Two configs hash equal iff every field that can
        change the result is equal.
        """
        payload = json.dumps(
            canonical_config(self.to_dict()),
            sort_keys=True,
            separators=(",", ":"),
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


# ---------------------------------------------------------------------------
# what the declaration above implies: legality, update-from-data, identity
# ---------------------------------------------------------------------------

_TYPE_NAMES = {bool: "a boolean", int: "an integer", float: "a number",
               str: "a string"}


def _is_whole(value) -> bool:
    return value % 1 == 0


def _field_rule(f: dataclasses.Field):
    """``(type, lo, hi, check, legal)`` for one leaf field: its value type
    (read off the default), inclusive bounds, any further predicate, and
    the words an error uses for what is legal."""
    typ, md = type(f.default), f.metadata
    lo = hi = check = None
    legal = _TYPE_NAMES.get(typ)
    if issubclass(typ, enum.Enum):
        legal = f"one of {[m.value for m in typ]}"
    elif "choices" in md:
        check = md["choices"].__contains__
        legal = f"one of {list(md['choices'])}"
    elif typ in (int, float):
        lo, hi = md.get("lo", 1), md.get("hi")
        if md.get("above") is not None:
            check = md["above"].__lt__
            legal = f"in ({md['above']:g}, {hi:g}]"
        elif md.get("whole"):
            check, legal = _is_whole, f"a whole number >= {lo}"
        elif lo is not None:
            legal = f">= {lo}" if hi is None else f"in [{lo:g}, {hi:g}]"
    return typ, lo, hi, check, legal


#: config class -> (its leaf rules by field name, its sections' classes)
_RULES: Dict[type, Tuple[dict, dict]] = {}


def _read_declaration(cls) -> None:
    leaves, sections = {}, {}
    for f in dataclasses.fields(cls):
        if f.default is dataclasses.MISSING:
            sections[f.name] = f.default_factory
            _read_declaration(f.default_factory)
        else:
            leaves[f.name] = _field_rule(f)
    _RULES[cls] = leaves, sections


_read_declaration(SystemConfig)


def _validate_fields(obj, path: str) -> None:
    leaves, sections = _RULES[type(obj)]
    for name, (typ, lo, hi, check, legal) in leaves.items():
        value = getattr(obj, name)
        kind = type(value)
        if kind is not typ and not (typ is float and kind is int):
            raise ConfigError(
                f"{path}{name} expects {_TYPE_NAMES.get(typ, legal)}, "
                f"got {value!r}"
            )
        # ``not >=`` rather than ``<`` so that NaN is out of every range
        if (
            (lo is not None and not value >= lo)
            or (hi is not None and not value <= hi)
            or (check is not None and not check(value))
        ):
            raise ConfigError(f"{path}{name} must be {legal}, got {value!r}")
    for name, cls in sections.items():
        section = getattr(obj, name)
        if type(section) is not cls:
            raise ConfigError(
                f"{path}{name} expects a {cls.__name__}, got {section!r}"
            )
        _validate_fields(section, f"{path}{name}.")


def _update_fields(obj, data: Mapping[str, Any], path: str) -> None:
    if not isinstance(data, Mapping):
        raise ConfigError(
            f"{path.rstrip('.') or 'the config'} is a section and needs "
            "an object value"
        )
    leaves, sections = _RULES[type(obj)]
    for key, value in data.items():
        if key in sections:
            _update_fields(getattr(obj, key), value, f"{path}{key}.")
            continue
        if key not in leaves:
            raise ConfigError(
                f"unknown config key {path}{key!r}; valid keys: "
                f"{sorted((*leaves, *sections))}"
            )
        typ, _lo, _hi, _check, legal = leaves[key]
        if issubclass(typ, enum.Enum) and type(value) is not typ:
            try:
                value = typ(value)
            except ValueError:
                raise ConfigError(
                    f"{path}{key} must be {legal}, got {value!r}"
                ) from None
        elif typ is float and type(value) is int:
            value = float(value)
        setattr(obj, key, value)


def declared_field(path: str) -> type:
    """The value type of the leaf field at dotted ``path``, as declared
    (what ``--set PATH=VALUE`` needs to read its text); a ``ConfigError``
    naming the legal keys for a path that is not a leaf."""
    cls = SystemConfig
    *sections, leaf = path.split(".")
    try:
        for name in sections:
            cls = _RULES[cls][1][name]
        typ = _RULES[cls][0][leaf][0]
    except KeyError:
        leaves, subsections = _RULES[cls]
        raise ConfigError(
            f"unknown config field {path!r}; {cls.__name__} has "
            f"{sorted((*leaves, *subsections))}"
        ) from None
    return typ


def nested(path: str, value: Any) -> Dict[str, Any]:
    """One field as :meth:`SystemConfig.update` data: ``{"a": {"b":
    value}}`` for the dotted path ``a.b``."""
    for part in reversed(path.split(".")):
        value = {part: value}
    return value


def _lookup(data: Mapping[str, Any], dotted: str) -> Any:
    for part in dotted.split("."):
        data = data[part]
    return data


#: per conditionally-read section: its ``live_when`` (path, value) and
#: the ``also_live_when`` of each of its fields that declares one
_LIVE_WHEN = {
    f.name: (
        f.metadata["live_when"],
        {
            g.name: g.metadata["also_live_when"]
            for g in dataclasses.fields(f.default_factory)
            if "also_live_when" in g.metadata
        },
    )
    for f in dataclasses.fields(SystemConfig)
    if "live_when" in f.metadata
}
#: ``(section, field, live_when)`` of every leaf that is identity only
#: under its own ``live_when`` — or never (``identity=False``: ``None``)
_CONDITIONAL_FIELDS = [
    (section, f.name, f.metadata.get("live_when"))
    for section, cls in _RULES[SystemConfig][1].items()
    for f in dataclasses.fields(cls)
    if f.metadata.get("identity") is False or "live_when" in f.metadata
]


def canonical_config(data: Mapping[str, Any]) -> Dict[str, Any]:
    """The identity of a design point, computed on its ``to_dict`` form.

    Empties every section whose ``live_when`` condition does not hold
    (``delegation`` unless Delegated Replies runs, ``probing`` unless
    Realistic Probing does, ``telemetry`` unless enabled) of all but the
    fields whose own ``also_live_when`` does (the watchdog timeout under
    Realistic Probing), drops every field whose own ``live_when`` does
    not hold (the shared-network VC split on separate networks and the
    reverse, the FRQ depth unless Delegated Replies runs) and every
    field declared ``identity=False`` (the telemetry output paths), so
    configs that differ only in what nothing reads share one
    ``config_hash()`` and one ``JobSpec.key()``.  The result still loads
    through :func:`config_from_dict`: what was dropped reads as default.
    """

    def holds(when) -> bool:
        return _lookup(data, when[0]) == when[1]

    out = dict(data)
    for section, (when, also) in _LIVE_WHEN.items():
        if not holds(when):
            out[section] = {
                name: data[section][name]
                for name, also_when in also.items()
                if holds(also_when)
            }
    for section, name, when in _CONDITIONAL_FIELDS:
        if when is None or not holds(when):
            out[section] = {
                k: v for k, v in out[section].items() if k != name
            }
    return out


def config_from_dict(data: Mapping[str, Any]) -> SystemConfig:
    """Build a validated :class:`SystemConfig` from a nested plain dict."""
    return SystemConfig().update(data).validate()


def table1_mix(width: int, height: int) -> Dict[str, int]:
    """Table I's node proportions on a ``width`` x ``height`` fabric — a
    quarter CPU cores, an eighth memory nodes, the rest GPU cores (40/16/8
    on the 8x8) — as the five ``SystemConfig`` fields that state it."""
    nodes = width * height
    n_cpu, n_mem = nodes // 4, nodes // 8
    return {
        "mesh_width": width,
        "mesh_height": height,
        "n_gpu": nodes - n_cpu - n_mem,
        "n_cpu": n_cpu,
        "n_mem": n_mem,
    }


def mechanism_config(mechanism: str, **overrides) -> SystemConfig:
    """A fresh Table I config running one of :data:`MECHANISMS`."""
    try:
        cfg = SystemConfig(mechanism=Mechanism(mechanism))
    except ValueError:
        raise ConfigError(
            f"unknown mechanism {mechanism!r}; choose from {MECHANISMS}"
        ) from None
    return cfg.copy(**overrides) if overrides else cfg


def baseline_config(**overrides) -> SystemConfig:
    """The paper's baseline system (Table I, Fig. 1a, CDR YX-XY)."""
    return mechanism_config("baseline", **overrides)


def delegated_replies_config(**overrides) -> SystemConfig:
    """Baseline system running Delegated Replies."""
    return mechanism_config("dr", **overrides)


def realistic_probing_config(**overrides) -> SystemConfig:
    """Baseline system running Realistic Probing (RP)."""
    return mechanism_config("rp", **overrides)
