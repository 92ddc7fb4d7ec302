"""Stall attribution and backpressure blame analysis.

Two layers turn "the network is slow" into "node 23's reply buffer is the
culprit":

* **Stall attribution** (:class:`StallTable`): every cycle a head worm
  fails to advance, the network charges the cycle to exactly one class of
  a fixed taxonomy (:data:`STALL_CLASSES`).  Charging is *deferred*: each
  blocked input VC carries one open record and is only charged when the
  stall class changes or the worm advances.  Repeated
  same-class observations are no-ops, and a router sleeping through an
  event-driven scheduling gap is charged correctly on wake — any event
  that could change a head worm's stall class also wakes its router, so
  the class is invariant over the gap.  Full-scan and event-driven runs
  therefore produce identical totals, and per-router totals equal the
  exact count of blocked head-worm cycles (the conservation property the
  tests enforce).  The memory-side ``reply_buffer`` rows are read off
  the counters the memory node keeps anyway.

* **Blame chains** (:func:`walk_chain` / :func:`survey_stalls`): for a
  clogging episode the walker follows each blocked head worm downstream
  — credit and VC-allocation stalls name the downstream VC whose head
  worm is the blocker — until it reaches a terminal stall (ejection
  gate, switch loss, pipeline dwell, ...).  Chains that end at a memory
  node whose reply injection buffer cannot take one more reply are
  extended one step to a ``reply_buffer`` root: that is the paper's
  Figure 3 loop, where replies that cannot inject close the ejection
  gate and strand request worms hop by hop upstream.

Everything here is read-only over live router state; the walker never
mutates the simulation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.noc.nic import MemoryNodeNic
from repro.noc.packet import NetKind
# the stall taxonomy and its charge indices are declared with the router
# that charges them, and re-exported here for the readers of stall tables
from repro.noc.router import (
    CREDIT, EJECT, LOCAL_PORT, PIPELINE, REPLY_BUFFER, ROUTE, SERIALIZATION,
    STALL_CLASSES, SWITCH as SWITCH, VC_ALLOC, InputVC, _AVAIL, _PKT, _READY,
)

N_CLASSES = len(STALL_CLASSES)

#: pseudo traffic class for memory-side counters (no single packet class)
ANY_CLS = -1


class StallTable:
    """Per-(net, router, port, class) stall-cycle counters.

    ``counts`` maps ``(net_name, router, port, traffic_cls)`` to a list of
    per-stall-class cycle counts.  The open records live on the input VCs
    (``InputVC.stall`` / ``stall_since`` / ``stall_row``): the collector's
    ``on_stall`` re-classes one, the router's move closes it, and
    :meth:`flush` charges every open one up to a window boundary.

    The memory-side rows are read, not charged: ``("mem", node, 0,
    ANY_CLS)`` is the node NIC's ``blocked_cycles`` and ``("mem", node, 1,
    ANY_CLS)`` its ``MemoryNode``'s ``reply_backpressure_cycles``, each
    since the table was built, both written at :meth:`flush` (which first
    settles the ``endpoints`` that sleep with counts owed).  ``counts``
    is therefore current as of the last flush.
    """

    __slots__ = ("counts", "_rows", "_nets", "_mem", "_endpoints")

    def __init__(self, nets: Sequence, mem_counters: Sequence,
                 endpoints: Sequence = ()) -> None:
        self.counts: Dict[Tuple[str, int, int, int], List[int]] = {}
        #: per traffic class, input VC -> its ``counts`` row
        self._rows: Tuple[Dict[InputVC, List[int]], ...] = ({}, {})
        #: the object networks whose input VCs carry open records
        self._nets = tuple(nets)
        #: ``(counts key, object, counter attribute, value at build)``
        self._mem = [
            (key, obj, attr, getattr(obj, attr)) for key, obj, attr in mem_counters
        ]
        self._endpoints = tuple(endpoints)

    def row(self, ivc: InputVC, cls: int) -> List[int]:
        """The ``counts`` row of ``ivc``'s (net, router, port) for traffic
        class ``cls``, created on first use and cached per input VC."""
        rows = self._rows[cls]
        row = rows.get(ivc)
        if row is None:
            router = ivc.router
            row = rows[ivc] = self.counts.setdefault(
                (router.net.name, router.rid, ivc.port, int(cls)),
                [0] * N_CLASSES,
            )
        return row

    def flush(self, cycle: int) -> None:
        """Charge every open record up to ``cycle`` (records stay open so
        accounting can continue across a window boundary) and read the
        memory-side rows."""
        for net in self._nets:
            for router in net.routers:
                for port in router.inputs:
                    for ivc in port:
                        klass = ivc.stall
                        if klass >= 0:
                            ivc.stall_row[klass] += max(0, cycle - ivc.stall_since)
                            ivc.stall_since = cycle
        for endpoint in self._endpoints:
            endpoint.settle(cycle)
        for key, obj, attr, base in self._mem:
            n = getattr(obj, attr) - base
            if n:
                self.counts.setdefault(key, [0] * N_CLASSES)[REPLY_BUFFER] = n

    def snapshot(self) -> Dict[Tuple[str, int, int, int], List[int]]:
        return {k: list(v) for k, v in self.counts.items()}

    def diff(
        self, base: Dict[Tuple[str, int, int, int], List[int]]
    ) -> Dict[Tuple[str, int, int, int], List[int]]:
        out = {}
        for key, row in self.counts.items():
            prev = base.get(key)
            d = list(row) if prev is None else [a - b for a, b in zip(row, prev)]
            if any(d):
                out[key] = d
        return out


# ---------------------------------------------------------------------------
# blame chains: read-only re-classification + downstream walking
# ---------------------------------------------------------------------------


def classify_head(
    ivc: InputVC, cycle: int
) -> Tuple[Optional[str], Optional[InputVC]]:
    """Why can the head worm of input VC ``ivc`` not advance?

    Read-only re-derivation of the arbitration checks in
    :meth:`repro.noc.network.PhysicalNetwork.decide`, over the records
    that only ``PhysicalNetwork`` writes (``decide``, ``commit``,
    ``accept``; ``Router`` and ``InputVC`` are state).  Returns ``(stall
    class name, next hop)``; class ``None`` means the worm is movable
    this cycle (at worst it loses switch allocation).  The next hop is
    set for ``credit``/``vc_alloc`` stalls — the downstream VC whose head
    worm is the blocker.  Heads whose route is not yet computed are
    approximated with the dimension-order port (exact for CDR configs).
    """
    q = ivc.q
    if not q:
        return None, None
    head = q[0]
    pkt = head[_PKT]
    if head[_AVAIL] == 0:
        return STALL_CLASSES[SERIALIZATION], None
    if cycle < head[_READY]:
        return STALL_CLASSES[PIPELINE], None
    router = ivc.router
    net = router.net
    oport = ivc.route_out
    if oport < 0:
        oport = net.dor_port(router.rid, pkt)
    if oport == LOCAL_PORT:
        if ivc.sent == 0 and not net.nics[router.rid].can_eject(pkt):
            return STALL_CLASSES[EJECT], None
        return None, None
    cap = router.vc_cap
    dvc = ivc.out
    if dvc is not None:
        if dvc.occ >= cap:
            return STALL_CLASSES[CREDIT], dvc
        owner = dvc.owner
        if owner is not None and owner is not pkt:
            return STALL_CLASSES[VC_ALLOC], dvc
        return None, None
    # header without an allocated VC: scan the candidates read-only
    row = router.downstream[oport]
    vlo, vhi = net.vc_ranges[pkt.net]
    if net.escape_vc_active and oport != net.dor_port(router.rid, pkt):
        vlo += 1  # the escape VC is reserved for dimension-order hops
    if vlo == vhi:
        return STALL_CLASSES[ROUTE], None  # escape-only port with no VC
    for dvc in row[vlo:vhi]:
        if dvc.owner is None and dvc.occ < cap:
            return None, None  # allocatable this cycle: movable
    return STALL_CLASSES[VC_ALLOC], row[vlo]


def _reply_blocked(router) -> bool:
    """``router``'s node is a memory node whose reply buffer is full."""
    nic = router.net.nics[router.rid]
    return isinstance(nic, MemoryNodeNic) and not nic.can_enqueue(NetKind.REPLY)


def walk_chain(ivc: InputVC, cycle: int, max_hops: int = 64) -> List[Dict]:
    """Follow one blocked head worm downstream to its terminal blocker.

    Returns the chain as hop dicts, upstream victim first; the last entry
    is the terminal blocker (its ``class`` the root stall class).  Chains
    whose terminal is an ejection stall at a memory node with a full
    reply injection buffer gain a final ``reply_buffer`` hop — the
    paper's Figure 3 causal loop closed.
    """
    hops: List[Dict] = []
    visited = set()
    while True:
        r = ivc.router
        if ivc in visited:
            hops.append({"node": r.rid, "net": r.net.name, "class": "cyclic"})
            break
        visited.add(ivc)
        q = ivc.q
        if not q:
            hops.append({"node": r.rid, "net": r.net.name, "class": "drained"})
            break
        klass, nxt = classify_head(ivc, cycle)
        pkt = q[0][_PKT]
        hops.append({"node": r.rid, "net": r.net.name, "port": ivc.port,
                     "vc": ivc.vc, "cls": pkt.cls.name, "dst": pkt.dst,
                     "class": klass or "moving"})
        if klass not in ("credit", "vc_alloc") or nxt is None \
                or len(hops) >= max_hops:
            break
        ivc = nxt
    if hops[-1]["class"] == "eject" and _reply_blocked(r):
        hops.append({"node": r.rid, "net": "mem", "class": "reply_buffer"})
    return hops


def _terminal(ivc: InputVC, cycle: int, memo: Dict) -> Optional[Tuple]:
    """``((terminal node, terminal class), depth)`` of the chain
    :func:`walk_chain` would walk from ``ivc`` with no hop limit, or None
    when it meets a cycle.  Kept in ``memo`` for every VC on the way, so
    a later chain through one of them stops there."""
    path: List[InputVC] = []
    on_path = set()
    while ivc not in memo:
        if ivc in on_path:
            end = None  # cyclic: each VC into the loop ends differently
            break
        r = ivc.router
        if not ivc.q:
            end = memo[ivc] = ((r.rid, "drained"), 1)
            break
        klass, nxt = classify_head(ivc, cycle)
        if klass in ("credit", "vc_alloc") and nxt is not None:
            path.append(ivc)
            on_path.add(ivc)
            ivc = nxt
            continue
        if klass == "eject" and _reply_blocked(r):
            end = memo[ivc] = ((r.rid, "reply_buffer"), 2)
        else:
            end = memo[ivc] = ((r.rid, klass or "moving"), 1)
        break
    else:
        end = memo[ivc]
    for prev in reversed(path):
        if end is not None:
            end = (end[0], end[1] + 1)
        memo[prev] = end
    return end


def survey_stalls(nets, cycle: int, max_hops: int = 64) -> Dict[Tuple[int, str], Dict]:
    """Walk every blocked head worm across ``nets`` and group the chains
    by terminal blocker.

    Returns ``{(terminal node, terminal class): group}`` where each group
    counts chains, per-traffic-class victims, the deepest chain length
    and keeps that deepest chain (the first found, on a tie) as a sample.
    Each input VC is classified once per survey (:func:`_terminal`), and
    hop dicts are built only for the samples; a chain that meets a cycle
    or runs past ``max_hops`` is walked plainly, by :func:`walk_chain`.
    """
    groups: Dict[Tuple[int, str], Dict] = {}
    memo: Dict[InputVC, Optional[Tuple]] = {}
    for net in nets:
        for router in net.routers:
            for ivc in router.active:
                end = memo[ivc] if ivc in memo else _terminal(ivc, cycle, memo)
                if end is None or end[1] > max_hops:
                    sample = walk_chain(ivc, cycle, max_hops=max_hops)
                    gkey = (sample[-1]["node"], sample[-1]["class"])
                    depth = len(sample)
                else:
                    gkey, depth = end
                    if depth == 1 and gkey[1] in ("moving", "drained"):
                        continue  # its own head is not blocked
                    sample = ivc
                g = groups.get(gkey)
                if g is None:
                    g = groups[gkey] = {"chains": 0, "victims": {},
                                        "max_depth": 0, "sample": sample}
                g["chains"] += 1
                victims, cls = g["victims"], ivc.q[0][_PKT].cls
                victims[cls] = victims.get(cls, 0) + 1
                if depth > g["max_depth"]:
                    g["max_depth"] = depth
                    g["sample"] = sample
    for g in groups.values():  # victims were counted by class, named here
        g["victims"] = {cls.name: n for cls, n in g["victims"].items()}
        if not isinstance(g["sample"], list):
            g["sample"] = walk_chain(g["sample"], cycle, max_hops=max_hops)
    return groups


class BlameAccumulator:
    """Aggregates per-probe blame surveys over one clogging episode."""

    def __init__(self, node: int) -> None:
        self.node = node
        self.walks = 0
        #: terminal stall class -> {"chains", "victims", "max_depth"}
        self.terminals: Dict[str, Dict] = {}
        self._sample: Optional[List[Dict]] = None
        self._sample_depth = 0

    def feed(self, groups: Dict[Tuple[int, str], Dict]) -> None:
        """Fold in one survey: only chains terminating at this node."""
        self.walks += 1
        for (tnode, tclass), g in groups.items():
            if tnode != self.node:
                continue
            t = self.terminals.setdefault(
                tclass, {"chains": 0, "victims": {}, "max_depth": 0})
            t["chains"] += g["chains"]
            for cls, n in g["victims"].items():
                t["victims"][cls] = t["victims"].get(cls, 0) + n
            t["max_depth"] = max(t["max_depth"], g["max_depth"])
            if g["max_depth"] > self._sample_depth:
                self._sample_depth = g["max_depth"]
                self._sample = g["sample"]

    def root_cause(self) -> Dict:
        """The episode's blame verdict: the terminal stall class that
        blocked the most chains at this node (reply-buffer wins ties —
        it is the causal root of every ejection stall it feeds)."""
        if not self.terminals:
            return {"node": self.node, "class": "reply_buffer", "chains": 0,
                    "walks": self.walks, "note": "no blocked chains "
                    "terminated here (injection-bandwidth bound)"}
        tclass, t = max(
            self.terminals.items(),
            key=lambda kv: (kv[1]["chains"], kv[0] == "reply_buffer"),
        )
        out = {
            "node": self.node, "class": tclass, "chains": t["chains"],
            "total_chains": sum(x["chains"] for x in self.terminals.values()),
            "victims": dict(t["victims"]), "max_depth": t["max_depth"],
            "walks": self.walks,
        }
        if self._sample is not None:
            out["sample"] = self._sample
        return out
