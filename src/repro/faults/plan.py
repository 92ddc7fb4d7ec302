"""Fault models: timed, seed-reproducible hardware-fault plans.

A :class:`FaultPlan` is the complete description of one fault scenario: a
list of timed :class:`FaultEvent` s plus the recovery parameters (request
timeout, retransmit budget, watchdog cadence) and the RNG seed the
loss sampling consumes.  Plans are plain data — JSON-serialisable,
canonically hashable — so they slot into :class:`repro.sweep.jobs.JobSpec`
cache keys the same way a :class:`~repro.config.system.SystemConfig` does:
the same seed and plan always reproduce the same simulation, bit for bit.

Event taxonomy (Section "fault taxonomy", DESIGN.md §9):

* :class:`LinkDown` / :class:`LinkUp` — a named inter-router link stops /
  resumes carrying flits.  Degraded-mode routing detours around it.
* :class:`RouterFreeze` — a router arbitrates nothing for ``cycles``
  cycles; its buffers still accept flits (a hung pipeline, not a power
  gate).
* :class:`FlitDrop` — each packet crossing the named link is damaged
  with probability ``p`` (sampled once per packet per link, at head-flit
  traversal).  A damaged packet still crosses the fabric, consuming
  bandwidth, and the CRC-style check at ejection discards it.

Links are named by router-id pairs ``(a, b)``; ``bidir=True`` (default)
applies the event to both directions.  ``net`` selects the physical
network(s): ``"request"``, ``"reply"`` or ``"both"`` (shared-network
configs map all three onto the single physical network).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Type

_NET_NAMES = ("request", "reply", "both")


def _canonical_json(data: Any) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class FaultEvent:
    """Base class: something happens to the fabric at cycle ``at``."""

    at: int

    #: wire-format tag; one per concrete event class.
    kind = "event"

    def to_dict(self) -> Dict[str, Any]:
        d = dataclasses.asdict(self)
        d["kind"] = self.kind
        return d


@dataclass(frozen=True)
class _LinkEvent(FaultEvent):
    a: int = 0
    b: int = 0
    net: str = "both"
    bidir: bool = True


@dataclass(frozen=True)
class LinkDown(_LinkEvent):
    """The ``a -> b`` link (both directions when ``bidir``) goes down."""

    kind = "link_down"


@dataclass(frozen=True)
class LinkUp(_LinkEvent):
    """Undo an earlier :class:`LinkDown` on the same link."""

    kind = "link_up"


@dataclass(frozen=True)
class RouterFreeze(FaultEvent):
    """Router ``router`` stops arbitrating for ``cycles`` cycles."""

    router: int = 0
    cycles: int = 0
    net: str = "both"

    kind = "router_freeze"


@dataclass(frozen=True)
class FlitDrop(FaultEvent):
    """A packet whose head flit crosses ``a -> b`` is damaged with
    probability ``p``: it still crosses the fabric, and the ejection-side
    CRC check discards it on arrival, so the receiver never sees it
    (``p = 0`` clears an earlier event on the link)."""

    a: int = 0
    b: int = 0
    p: float = 0.0
    net: str = "reply"
    bidir: bool = False

    kind = "flit_drop"


_EVENT_KINDS: Dict[str, Type[FaultEvent]] = {
    cls.kind: cls for cls in (LinkDown, LinkUp, RouterFreeze, FlitDrop)
}


def event_from_dict(data: Dict[str, Any]) -> FaultEvent:
    data = dict(data)
    kind = data.pop("kind", None)
    cls = _EVENT_KINDS.get(kind)
    if cls is None:
        raise ValueError(f"unknown fault-event kind {kind!r}")
    return cls(**data)


@dataclass
class FaultPlan:
    """One fault scenario: timed events + detection/recovery parameters.

    ``seed`` feeds the dedicated loss RNG stream (never the
    simulator's own RNGs), so a plan is reproducible independently of the
    workload.  ``request_timeout`` / ``max_retries`` / ``backoff`` shape
    the per-NIC retransmit guard; ``watchdog_interval`` /
    ``watchdog_checks`` shape the no-progress watchdog (a router holding
    flits that routes nothing for ``interval * checks`` cycles trips it).
    """

    events: List[FaultEvent] = field(default_factory=list)
    seed: int = 0
    request_timeout: int = 512
    max_retries: int = 6
    backoff: float = 2.0
    timeout_cap: int = 8192
    watchdog_interval: int = 128
    watchdog_checks: int = 8

    def __post_init__(self) -> None:
        for ev in self.events:
            net = getattr(ev, "net", "both")
            if net not in _NET_NAMES:
                raise ValueError(
                    f"fault event net must be one of {_NET_NAMES}, got {net!r}"
                )

    # -- queries --------------------------------------------------------

    @property
    def active(self) -> bool:
        """Whether the plan injects any fault at all."""
        return bool(self.events)

    # -- wire format ----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "events": [ev.to_dict() for ev in sorted_events(self.events)],
            "seed": self.seed,
            "request_timeout": self.request_timeout,
            "max_retries": self.max_retries,
            "backoff": self.backoff,
            "timeout_cap": self.timeout_cap,
            "watchdog_interval": self.watchdog_interval,
            "watchdog_checks": self.watchdog_checks,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        data = dict(data)
        events = [event_from_dict(ev) for ev in data.pop("events", [])]
        return cls(events=events, **data)

    def canonical_json(self) -> str:
        """Canonical encoding: what :class:`~repro.sweep.jobs.JobSpec`
        hashes into its cache key."""
        return _canonical_json(self.to_dict())

    def plan_hash(self) -> str:
        return hashlib.sha256(
            self.canonical_json().encode("utf-8")
        ).hexdigest()[:16]


def sorted_events(events: Sequence[FaultEvent]) -> List[FaultEvent]:
    """Events in deterministic application order (time, then kind/fields)."""
    return sorted(events, key=lambda ev: (ev.at, ev.kind, repr(ev)))


def chaos_plan(
    cfg,
    intensity: float,
    *,
    seed: int = 0,
    warmup: int = 0,
    cycles: int = 0,
    link_down: bool = True,
) -> FaultPlan:
    """A canonical chaos scenario for ``cfg`` at the given fault intensity.

    One :class:`FlitDrop` of probability ``0.8 * intensity`` (drops) plus
    ``0.2 * intensity`` (corruptions), each rounded to 6 places, sits on
    every reply-network link *out of* each memory node — the links every
    LLC/DRAM reply must cross, so the retransmit guard and the DNF
    fallback are exercised in proportion to ``intensity``.  When
    ``link_down`` and the window is long enough, one deterministic interior
    mesh link additionally goes down for the middle half of the measured
    window, exercising degraded-mode routing.

    Deterministic in (``cfg``, ``intensity``, ``seed``): the same arguments
    always produce the same plan, so chaos sweeps cache cleanly.
    """
    from repro.noc.topology import MeshTopology, build_topology
    from repro.sim.layout import build_layout

    if intensity < 0 or intensity > 1:
        raise ValueError("intensity must be in [0, 1]")
    topo = build_topology(cfg.noc.topology, cfg.mesh_width, cfg.mesh_height)
    layout = build_layout(cfg)
    events: List[FaultEvent] = []
    # summed as the two-event plans summed them, so every damage decision
    # is the same draw against the same bound
    p_loss = round(0.8 * intensity, 6) + round(0.2 * intensity, 6)
    if intensity > 0:
        for mem in layout.mem_nodes:
            for nb in topo.neighbors(mem):
                events.append(
                    FlitDrop(at=0, a=mem, b=nb, p=p_loss, net="reply")
                )
    horizon = warmup + cycles
    if (
        link_down
        and intensity > 0
        and horizon >= 400
        and isinstance(topo, MeshTopology)
        and topo.width > 3
        and topo.height > 2
    ):
        # one interior horizontal link, chosen reproducibly from the seed,
        # away from the memory column (mesh layouts keep memory nodes on
        # the outer columns, so interior x in [1, width-3] is safe)
        rng = random.Random(seed * 2654435761 + 17)
        mem_set = set(layout.mem_nodes)
        candidates = []
        for y in range(1, topo.height - 1):
            for x in range(1, topo.width - 2):
                a, b = topo.router_at(x, y), topo.router_at(x + 1, y)
                if a not in mem_set and b not in mem_set:
                    candidates.append((a, b))
        if candidates:
            a, b = candidates[rng.randrange(len(candidates))]
            down_at = warmup + max(1, cycles // 4)
            up_at = warmup + max(2, cycles // 2)
            events.append(LinkDown(at=down_at, a=a, b=b, net="both"))
            events.append(LinkUp(at=up_at, a=a, b=b, net="both"))
    return FaultPlan(events=events, seed=seed)
