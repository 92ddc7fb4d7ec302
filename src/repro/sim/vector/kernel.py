"""The struct-of-arrays NoC kernel behind ``backend="vector"``.

Layout (DESIGN.md §12).  Both physical networks are folded into one flat
index space so every per-cycle phase runs once:

* row   ``r = net_i * n + rid``            — one router instance,
* group ``g = r * P + oport``              — one output port (= the input
  port it feeds downstream; ``g`` doubles as the input-port id ``f // V``),
* vc    ``f = (r * P + iport) * V + ivc``  — one input virtual channel.

Each input VC is a small ring of worm entries (``ent_*``, depth
``Q = vc_cap + 1``); the entry at the ring head is mirrored into flat
``h_*`` arrays (packet, flits available, pipeline-ready cycle, switch
priority key, routed group, allocated downstream VC, ...) which are the
authoritative copy — the ring slot under the head is allowed to go stale.
Packets live in a parallel table (``pk_*`` arrays plus the ``pk_obj``
Python list holding the canonical :class:`~repro.noc.packet.Packet`
objects); table indices are recycled through a free list at delivery.

Everything is int64: the arrays are tiny (a mesh 8x8 with two physical
networks is 1280 input VCs), so index-dtype uniformity — which lets numpy
reuse fancy-index buffers without a cast per op — matters far more than
footprint.

One cycle = ``bandwidth`` two-phase passes followed by NIC injection:

1. **Decide** — one mask pass selects the head worms that may move
   (pipeline done, credit + write lock downstream, ejection gate open,
   lazy VC allocation), then a single stable argsort of their priority
   keys feeds two first-occurrence scatters: min-key winner per output
   group, then per-input-port uniqueness among those winners — exactly
   the object kernel's switch allocation, batched.
2. **Commit** — all winners move at once: source counters decrement,
   arriving flits merge into or append to downstream rings, tails pop
   and promote the next ring entry to the head mirror.  Python-side
   effects (deliveries, fault hooks) run in the oracle's
   (network, router, key) order; without a fault controller the delivery
   counters are batched into array updates and only the per-packet
   object bookkeeping (stamps, the NIC handler) loops.

Injection (:meth:`VectorKernel._inject`, the kernel's only implementation
of it) batches every NIC at any bandwidth: per lane and within its flit
budget, in-flight worms continue lowest-VC-first, then new worms start on
free VCs.  With separate physical networks the (kind, node) injection
lanes coincide with the router rows, so both kinds run in one batch; a
shared network has one lane per node and runs the kinds in the oracle's
parity order, carrying each lane's remaining budget from one to the other.

Memory nodes are ordinary lanes of that batch.  Their reply deque is kept
in the scheduler's ``(cls, pid)`` order by ``MemoryNodeNic.try_send``, so
the batch's FIFO ``popleft`` picks CPU replies first.  What makes them
memory nodes is a handful of ``(M,)`` rows over the ``M`` memory lanes
(``mem_*``: reply-buffer occupancy, blocked cycles, worst-case
reply size, the delegation trigger's inputs) advanced by array ops after
the batch (:meth:`VectorKernel._mem_account`).  Only the delegation
*scan* stays Python — ``MemoryNodeNic._delegate_scan`` builds ``Packet``
objects and draws packet ids — and it runs for exactly the lanes whose
trigger fired while a delegatable reply may be queued, in ascending node
order.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, List, Optional

import numpy as np

from repro.noc.packet import Packet
from repro.noc.router import LOCAL_PORT
from repro.noc.routing import route_tables

#: sentinels for empty head slots.
_NO_READY = np.int64(2**62)
_NO_KEY = np.int64(2**62)

_I64 = np.int64


class VectorKernel:
    """All mutable NoC state as preallocated numpy arrays."""

    def __init__(self, topology, cfg, mem_nodes, net_facades):
        self.topology = topology
        self.cfg = cfg
        self.nets = net_facades          # VectorNet facades, by net_i
        # (the list is filled by VectorFabric after construction)
        self.NN = cfg.physical_networks
        separate = self.separate = self.NN == 2
        n = topology.n
        self.n = n
        # geometry: the topology's port map, the config's VC ranges
        port_of = topology.port_of
        P = 1 + max(map(len, port_of))
        V = cfg.network_vcs
        self._vlo_arr, self._vhi_arr = np.array(cfg.vc_ranges, dtype=_I64).T
        R = self.NN * n
        self.P, self.V, self.R = P, V, R
        self.PV = P * V
        F = R * P * V
        G = R * P
        self.F, self.G = F, G
        cap = cfg.vc_depth_flits
        self.cap = cap
        Q = cap + 1
        self.Q = Q
        self.pipeline = cfg.hop_cycles
        self.bandwidth = cfg.link_flits_per_cycle
        self._mem_cap = cfg.mem_injection_buffer_flits

        # the next-hop tables, flattened: [kind, rid, dst] -> oport
        self.route_tab = np.array(
            route_tables(topology, cfg), dtype=_I64
        ).ravel()

        # downstream input-port flat-VC base per output group (-1: local
        # ejection or unused port slot)
        db = np.full(G, -1, dtype=_I64)
        for net_i in range(self.NN):
            for rid in range(n):
                row = net_i * n + rid
                for nb, oport in port_of[rid].items():
                    dport = port_of[nb][rid]
                    db[row * P + oport] = (
                        ((net_i * n + nb) * P + dport) * V
                    )
        self.down_base = db

        # -- per-VC state (head mirror + entry rings) -------------------
        # the ten int64 head fields live in one (10, F) block so install
        # and clear are single column scatters; the named h_* attributes
        # are row views into it and alias its memory
        self._hclear = np.array(
            [[-1], [0], [_NO_READY], [0], [-1], [-1], [-1], [0],
             [_NO_KEY], [0]], dtype=_I64,
        )
        self._H = np.repeat(self._hclear, F, axis=1)
        (self.h_pkt, self.h_avail, self.h_ready, self.h_sent,
         self.h_outvc, self.h_dvc, self.h_dbase, self.h_grp,
         self.h_key, self.h_size) = self._H
        self.h_eject = np.zeros(F, dtype=bool)
        self.occ = np.zeros(F, dtype=_I64)
        self.owner = np.full(F, -1, dtype=_I64)
        self.qlen = np.zeros(F, dtype=_I64)
        self.qhead = np.zeros(F, dtype=_I64)
        self.ent_pkt = np.zeros(F * Q, dtype=_I64)
        self.ent_avail = np.zeros(F * Q, dtype=_I64)
        self.ent_ready = np.zeros(F * Q, dtype=_I64)

        # -- per-router / per-link statistics ---------------------------
        self.flits_routed = np.zeros(R, dtype=_I64)
        self.link_flits = np.zeros(G, dtype=_I64)

        # -- packet table ----------------------------------------------
        pc = 4096
        self.pk_size = np.zeros(pc, dtype=_I64)
        self.pk_dst = np.zeros(pc, dtype=_I64)
        self.pk_netk = np.zeros(pc, dtype=_I64)
        self.pk_key = np.zeros(pc, dtype=_I64)
        self.pk_hops = np.zeros(pc, dtype=_I64)
        self.pk_mtype = np.zeros(pc, dtype=_I64)
        self.pk_cls = np.zeros(pc, dtype=_I64)
        self.pk_obj: List[Optional[Packet]] = [None] * pc
        self._free = list(range(pc - 1, -1, -1))

        # -- injection state, one lane per (kind, node) -----------------
        self.infl_pkt = np.full((2, n, V), -1, dtype=_I64)
        self.infl_pushed = np.zeros((2, n, V), dtype=_I64)
        self.flits_injected_arr = np.zeros((2, n), dtype=_I64)
        self.flits_rx_arr = np.zeros((2, n), dtype=_I64)  # by class
        self.data_rx_arr = np.zeros(n, dtype=_I64)
        #: per-(kind, node) queues of un-started Packet objects; their
        #: lengths are scanned once per cycle instead of being mirrored
        #: into an array that every try_send would have to maintain
        self.queues: List[List] = [
            [deque() for _ in range(n)] for _ in range(2)
        ]
        #: per (kind, node) lane, ``kind * n + node``: a core sleeps until
        #: the lane's queue pops (``NodeInterface.sleeper``; request lanes)
        self.pop_wake = np.zeros(2 * n, dtype=bool)
        # The injection batches of _inject.  A lane is one router's local
        # input port, so there are R of them.  With separate physical
        # networks the (kind, node) lanes are the router rows and both
        # kinds inject as one batch; a shared network has one lane per
        # node and a batch per kind, each over the kind's VC range.  A
        # batch is: the (lane, vc) ids of those input VCs, views of the
        # in-flight packet and flits pushed per (lane, vc) and of the
        # flits injected per lane, the lanes' queues and pop-wake mask.
        loc = np.arange(F, dtype=_I64).reshape(R, P, V)[:, LOCAL_PORT]
        if separate:
            self._batches = ((
                loc.copy(),
                self.infl_pkt.reshape(R, V), self.infl_pushed.reshape(R, V),
                self.flits_injected_arr.reshape(R),
                self.queues[0] + self.queues[1], self.pop_wake,
            ),)
        else:
            self._batches = tuple(
                (
                    loc[:, lo:hi].copy(),
                    self.infl_pkt[k, :, lo:hi], self.infl_pushed[k, :, lo:hi],
                    self.flits_injected_arr[k],
                    self.queues[k], self.pop_wake[k * n:(k + 1) * n],
                )
                for k, (lo, hi) in enumerate(cfg.vc_ranges)
            )

        #: per-node ejection gate (``nic.eject_gate``), and the input VCs
        #: of the routers that have one (both networks)
        self.gates: List[Optional[Callable[[Packet], bool]]] = [None] * n
        self._gated_f = np.zeros(F, dtype=bool)
        self._any_gate = False

        # -- memory lanes: (M,) rows in ascending node order ------------
        self.mem_nodes = tuple(sorted(mem_nodes))
        M = len(self.mem_nodes)
        self._mem_arr = np.array(self.mem_nodes, dtype=_I64)
        #: reply-buffer occupancy in flits: queued replies plus the
        #: un-injected flits of replies mid-injection
        self.mem_occ = np.zeros(M, dtype=_I64)
        self.mem_blocked = np.zeros(M, dtype=_I64)
        #: flits of the largest reply the node sends (admission headroom)
        self.mem_worst = np.zeros(M, dtype=_I64)
        #: delegate only when the reply path is blocked (Figure 4); written
        #: through the NIC's ``set_delegation``
        self.mem_only_blocked = np.ones(M, dtype=bool)
        #: a delegatable reply may be queued (set by ``try_send``, cleared
        #: by a scan that reaches the end of the queue)
        self.mem_mark = np.zeros(M, dtype=bool)
        #: reply flits injected per lane as of the previous cycle
        self._mem_injected = np.zeros(M, dtype=_I64)

        # scratch
        self._gstamp = np.zeros(G, dtype=_I64)
        self._arange = np.arange(F, dtype=_I64)
        # static per-VC route/group bases for _set_heads: with separate
        # physical networks a packet on kind k only travels on net k, so
        # the route-table row (k*n + rid) equals the router row f // PV
        # and needs no per-packet net gather
        row_f = self._arange // self.PV
        self._rtbase_f = row_f * n
        self._rowp_f = row_f * P

        #: wired by VectorFabric after construction
        self.fabric = None
        self.nics: List = []

    # ------------------------------------------------------------------
    # packet table
    # ------------------------------------------------------------------

    def _grow_packets(self) -> None:
        old = len(self.pk_obj)
        new = old * 2
        for name in (
            "pk_size", "pk_dst", "pk_netk", "pk_key", "pk_hops",
            "pk_mtype", "pk_cls",
        ):
            arr = getattr(self, name)
            grown = np.zeros(new, dtype=arr.dtype)
            grown[:old] = arr
            setattr(self, name, grown)
        self.pk_obj.extend([None] * old)
        self._free.extend(range(new - 1, old - 1, -1))

    def register_many(self, objs) -> np.ndarray:
        """Enter ``objs`` into the packet table, returning their indices."""
        need = len(objs)
        free = self._free
        while len(free) < need:
            self._grow_packets()
            free = self._free
        idxs = np.empty(need, dtype=_I64)
        pk_obj = self.pk_obj
        for j, pkt in enumerate(objs):
            i = free.pop()
            idxs[j] = i
            pk_obj[i] = pkt
        # one interleaved fromiter (the enums are IntEnums), six scatters
        data = np.fromiter(
            (x for p in objs
             for x in (p.size_flits, p.dst, p.net, p.cls, p.pid, p.mtype)),
            _I64, count=6 * need,
        ).reshape(need, 6)
        self.pk_size[idxs] = data[:, 0]
        self.pk_dst[idxs] = data[:, 1]
        self.pk_netk[idxs] = data[:, 2]
        cls = data[:, 3]
        self.pk_cls[idxs] = cls
        self.pk_key[idxs] = (cls << 48) | data[:, 4]
        self.pk_hops[idxs] = 0
        self.pk_mtype[idxs] = data[:, 5]
        return idxs

    # ------------------------------------------------------------------
    # head mirror
    # ------------------------------------------------------------------

    def _set_heads(self, f, pkt, avail, ready) -> None:
        """Install worm heads ``pkt`` at input VCs ``f`` (all arrays)."""
        rt = self._rtbase_f[f] + self.pk_dst[pkt]
        if not self.separate:
            # one shared net: the route-table row still keys on the kind
            rt += self.pk_netk[pkt] * (self.n * self.n)
        op = self.route_tab[rt]
        g = self._rowp_f[f] + op
        self.h_pkt[f] = pkt
        self.h_avail[f] = avail
        self.h_ready[f] = ready
        self.h_sent[f] = 0
        self.h_outvc[f] = -1
        self.h_dvc[f] = -1
        self.h_dbase[f] = self.down_base[g]
        self.h_grp[f] = g
        self.h_key[f] = self.pk_key[pkt]
        self.h_size[f] = self.pk_size[pkt]
        self.h_eject[f] = op == LOCAL_PORT

    def _clear_heads(self, f) -> None:
        # parking h_ready at the sentinel is enough to empty a head:
        # eligibility requires h_ready <= cycle, and every other head
        # field is only read under an eligibility-derived mask or at
        # mover subsets, then rewritten wholesale by the next _set_heads
        self.h_ready[f] = _NO_READY

    # ------------------------------------------------------------------
    # flit acceptance (batched PhysicalNetwork.accept)
    # ------------------------------------------------------------------

    def _accept(self, dvc, pkt, tail, cycle: int) -> None:
        """Receive one flit of ``pkt[j]`` into input VC ``dvc[j]``.

        ``dvc`` must be duplicate-free (guaranteed: at most one flit
        enters any input VC per pass).  Mirrors ``PhysicalNetwork.accept``:
        a continuation merges into its worm's (tail) entry, a new worm
        appends a header entry that dwells ``pipeline`` cycles.
        """
        merge = self.owner[dvc] == pkt
        ql = self.qlen[dvc]
        mh = merge & (ql == 1)
        self.h_avail[dvc[mh]] += 1
        mr = merge & (ql > 1)
        i = dvc[mr]
        pos = (self.qhead[i] + ql[mr] - 1) % self.Q
        self.ent_avail[i * self.Q + pos] += 1
        new = ~merge
        ready = cycle + self.pipeline
        est = new & (ql == 0)
        if est.any():
            self._set_heads(dvc[est], pkt[est], 1, ready)
        app = new & (ql > 0)
        i = dvc[app]
        pos = (self.qhead[i] + ql[app]) % self.Q
        fi = i * self.Q + pos
        self.ent_pkt[fi] = pkt[app]
        self.ent_avail[fi] = 1
        self.ent_ready[fi] = ready
        self.qlen[dvc[new]] += 1
        self.occ[dvc] += 1
        self.owner[dvc] = np.where(tail, -1, pkt)

    def _accept_cont(self, dvc, tail) -> None:
        """Continuation flits into VCs their worms already own.

        A continuing worm always merges: the write lock (``owner``) is
        released only when its tail is accepted, and its entry cannot pop
        before that tail leaves, so ``qlen >= 1`` and ``owner == pkt``
        hold by construction.
        """
        ql = self.qlen[dvc]
        mh = ql == 1
        self.h_avail[dvc[mh]] += 1
        i = dvc[~mh]
        pos = (self.qhead[i] + ql[~mh] - 1) % self.Q
        self.ent_avail[i * self.Q + pos] += 1
        self.occ[dvc] += 1
        self.owner[dvc[tail]] = -1

    def _accept_new(self, dvc, pkt, tail, cycle: int) -> None:
        """Header flits of freshly started worms (``owner`` was free)."""
        ql = self.qlen[dvc]
        ready = cycle + self.pipeline
        est = ql == 0
        if est.any():
            self._set_heads(dvc[est], pkt[est], 1, ready)
        app = ~est
        i = dvc[app]
        pos = (self.qhead[i] + ql[app]) % self.Q
        fi = i * self.Q + pos
        self.ent_pkt[fi] = pkt[app]
        self.ent_avail[fi] = 1
        self.ent_ready[fi] = ready
        self.qlen[dvc] += 1
        self.occ[dvc] += 1
        self.owner[dvc] = np.where(tail, -1, pkt)

    # ------------------------------------------------------------------
    # the two-phase pass
    # ------------------------------------------------------------------

    def set_gate(self, node: int, fn) -> None:
        """Install (or with ``None`` remove) ``node``'s ejection gate."""
        self.gates[node] = fn
        self._gated_f.reshape(self.NN, self.n, self.PV)[:, node] = (
            fn is not None
        )
        self._any_gate = fn is not None or any(self.gates)

    def _decide(self, cycle: int):
        """Phase A: admitted head worms -> switch-allocation winners.

        All masks are computed over the full flat VC space — at the tiny
        array sizes involved, one fat op beats three subset-sized ones
        plus the gather that carves the subset out.
        """
        elig = (self.h_ready <= cycle) & (self.h_avail > 0)
        if not elig.any():
            return None
        # downstream credit + write lock, full-width (h_dvc is -1 when no
        # VC is held; the wrapped gather result is masked off by `have`)
        dvc = self.h_dvc
        own_d = self.owner[dvc]
        credit = (self.occ[dvc] < self.cap) & (
            (own_d < 0) | (own_d == self.h_pkt)
        )
        have = dvc >= 0
        ej = self.h_eject
        admit = elig & (ej | (have & credit))
        need = elig & ~ej & ~have
        if need.any():
            # lazy VC allocation from frozen start-of-pass state; the
            # claim persists even when the worm then loses the switch
            ni = np.flatnonzero(need)
            dbase = self.h_dbase[ni]
            if self.separate:
                vlo = vhi = None
            else:
                k = self.pk_netk[self.h_pkt[ni]]
                vlo = self._vlo_arr[k]
                vhi = self._vhi_arr[k]
            chosen = np.full(ni.size, -1, dtype=_I64)
            for vc in range(self.V):
                at = dbase + vc
                free = (self.owner[at] < 0) & (self.occ[at] < self.cap)
                if vlo is not None:
                    free &= (vc >= vlo) & (vc < vhi)
                chosen = np.where((chosen < 0) & free, vc, chosen)
            got = chosen >= 0
            gi = ni[got]
            if gi.size:
                self.h_outvc[gi] = chosen[got]
                self.h_dvc[gi] = dbase[got] + chosen[got]
                admit[gi] = True
        if self._any_gate:
            # a NIC with an ejection gate: new worms (sent == 0) destined
            # there ask the gate scalar-side, exactly like the oracle
            gated = np.flatnonzero(
                admit & ej & self._gated_f & (self.h_sent == 0)
            )
            if gated.size:
                rids = ((gated // self.PV) % self.n).tolist()
                pks = self.h_pkt[gated].tolist()
                for f, rid, p in zip(gated.tolist(), rids, pks):
                    if not self.gates[rid](self.pk_obj[p]):
                        admit[f] = False
        adm = np.flatnonzero(admit)
        if not adm.size:
            return None
        order = np.argsort(self.h_key[adm], kind="stable")
        sadm = adm[order]
        pos = self._arange[:sadm.size]
        # min-key winner per output group: first occurrence in key order
        sgrp = self.h_grp[sadm]
        stamp = self._gstamp
        stamp[sgrp[::-1]] = pos[::-1]
        w = stamp[sgrp] == pos
        sadm = sadm[w]
        # one flit per input port: first occurrence per port among the
        # per-output winners, still in key order (= the oracle's greedy)
        ip = sadm // self.V
        pos = self._arange[:sadm.size]
        stamp[ip[::-1]] = pos[::-1]
        w = stamp[ip] == pos
        return sadm[w]

    def _commit(self, movers, cycle: int) -> None:
        """Phase B: apply all winning moves against the frozen state."""
        m = movers
        pkt = self.h_pkt[m]
        self.h_avail[m] -= 1
        self.occ[m] -= 1
        ns = self.h_sent[m] + 1
        self.h_sent[m] = ns
        tail = ns == self.h_size[m]
        rows = m // self.PV
        np.add.at(self.flits_routed, rows, 1)
        ej = self.h_eject[m]
        nli = ~ej
        fa = self.fabric.faults
        if nli.any():
            mn = m[nli]
            self._accept(self.h_dvc[mn], pkt[nli], tail[nli], cycle)
            grp = self.h_grp[mn]
            self.link_flits[grp] += 1
            if fa is not None and fa._lossy:
                heads = np.flatnonzero(nli & (ns == 1))
                if heads.size:
                    # header link crossings draw from one shared RNG
                    # stream: call in the oracle's (net, rid, key) order
                    sub = np.argsort(rows[heads], kind="stable")
                    for j in heads[sub].tolist():
                        f = int(m[j])
                        row = f // self.PV
                        g = int(self.h_grp[f])
                        fa.on_link_head(
                            self.nets[row // self.n],
                            row % self.n,
                            g % self.P,
                            self.pk_obj[int(pkt[j])],
                        )
        # deliveries: at most one ejection per router per pass, applied
        # in the oracle's (net, rid) order
        dmask = ej & tail
        if dmask.any():
            di = np.flatnonzero(dmask)
            sub = np.argsort(rows[di], kind="stable")
            di = di[sub]
            if fa is None:
                self._deliver_fast(rows[di], pkt[di], cycle)
            else:
                for j in di.tolist():
                    self._deliver(int(m[j]), int(pkt[j]), cycle, fa)
        if tail.any():
            # one tail mover per packet per pass: plain fancy increment
            self.pk_hops[pkt[tail]] += 1
            f = m[tail]
            ql = self.qlen[f] - 1
            self.qlen[f] = ql
            fe = f[ql == 0]
            if fe.size:
                self._clear_heads(fe)
            fn = f[ql > 0]
            if fn.size:
                qh = (self.qhead[fn] + 1) % self.Q
                self.qhead[fn] = qh
                fi = fn * self.Q + qh
                self._set_heads(
                    fn,
                    self.ent_pkt[fi],
                    self.ent_avail[fi],
                    self.ent_ready[fi],
                )

    def _deliver_fast(self, rows, pk, cycle: int) -> None:
        """Deliveries with no fault controller installed, row-sorted.

        Counter updates run as array ops; only the per-packet object
        bookkeeping (delivery stamp, hop count, the NIC handler) loops.
        """
        n = self.n
        rids = rows % n
        sizes = self.pk_size[pk]
        # rows are unique but rids are not (the same node can eject on
        # both networks in one pass): scatter-add, not fancy +=
        np.add.at(self.flits_rx_arr, (self.pk_cls[pk], rids), sizes)
        data = sizes > 1
        if data.any():
            np.add.at(self.data_rx_arr, rids[data], sizes[data] - 1)
        mts = self.pk_mtype[pk]
        net_is = rows // n
        for net_i in range(self.NN):
            net = self.nets[net_i]
            sel = net_is == net_i if self.NN > 1 else slice(None)
            ssz = sizes[sel]
            cnt = ssz.size
            if not cnt:
                continue
            net.packets_delivered += cnt
            net.flits_delivered += int(ssz.sum())
            dbt = net.delivered_by_type
            for mt, c in enumerate(np.bincount(mts[sel]).tolist()):
                if c:
                    dbt[mt] = dbt.get(mt, 0) + c
        pk_obj = self.pk_obj
        free = self._free
        nics = self.nics
        hops_pre = self.pk_hops[pk].tolist()
        rl = rids.tolist()
        for j, p in enumerate(pk.tolist()):
            pkt = pk_obj[p]
            pkt.delivered = cycle
            pre = hops_pre[j]
            pkt.hops = pre  # the handler sees the pre-increment count
            handler = nics[rl[j]].handler
            if handler is not None:
                handler(pkt, cycle)
            pkt.hops = pre + 1
            pk_obj[p] = None
            free.append(p)

    def _deliver(self, f: int, p: int, cycle: int, fa) -> None:
        row = f // self.PV
        net_i, rid = divmod(row, self.n)
        pkt = self.pk_obj[p]
        discarded = fa is not None and fa.discard_on_eject(pkt, rid, cycle)
        if not discarded:
            net = self.nets[net_i]
            pkt.delivered = cycle
            pkt.hops = int(self.pk_hops[p])  # final +1 lands below
            net.packets_delivered += 1
            net.flits_delivered += pkt.size_flits
            key = int(pkt.mtype)
            dbt = net.delivered_by_type
            dbt[key] = dbt.get(key, 0) + 1
            self.nics[rid].deliver(pkt, cycle)
        pkt.hops = int(self.pk_hops[p]) + 1
        self.pk_obj[p] = None
        self._free.append(p)

    # ------------------------------------------------------------------
    # injection
    # ------------------------------------------------------------------

    def _inject(self, cycle: int) -> None:
        """NIC injection for every node at once (§6.1 step 2).

        Per lane, while its flit budget lasts: the in-flight worms on the
        lowest eligible VCs continue, one flit each; then queued packets
        start on the lowest free VC of the kind's range, one header flit
        per pass.  A VC is free when it has no owner, has credit and
        carries no in-flight injection — read afresh each pass, so a VC
        whose worm pushed its tail this cycle, or which just took a whole
        single-flit packet, may be picked again.
        """
        cap = self.cap
        budget = np.full(self.R, self.bandwidth, dtype=_I64)
        # a shared network injects the reply kind first on odd cycles and
        # carries what is left of each lane's budget to the other kind
        batches = self._batches[::-1] if cycle & 1 else self._batches
        for loc, ip, sent, finj, queues, wake in batches:
            had = budget.copy()
            occ = self.occ[loc]
            own = self.owner[loc]
            cont = (ip >= 0) & (occ < cap) & ((own < 0) | (own == ip))
            nvc = cont.shape[1]
            for vc in range(nvc):  # lowest VC first, while budget lasts
                col = cont[:, vc]
                col &= budget > 0
                budget -= col
            lanes, vcs = np.nonzero(cont)
            if lanes.size:
                pushed = sent[lanes, vcs] + 1
                tl = pushed == self.pk_size[ip[lanes, vcs]]
                self._accept_cont(loc[lanes, vcs], tl)
                sent[lanes, vcs] = pushed
                ip[lanes[tl], vcs[tl]] = -1
            qlens = np.fromiter(map(len, queues), _I64, count=len(queues))
            for _ in range(self.bandwidth):
                want = (budget > 0) & (qlens > 0)
                if not want.any():
                    break
                free = (self.owner[loc] < 0) & (self.occ[loc] < cap) & (ip < 0)
                lowest = np.full(len(queues), -1, dtype=_I64)
                for vc in range(nvc - 1, -1, -1):
                    lowest[free[:, vc]] = vc
                lanes = np.flatnonzero(want & (lowest >= 0))
                if not lanes.size:
                    break
                vcs = lowest[lanes]
                objs = [queues[lane].popleft() for lane in lanes.tolist()]
                woke = wake[lanes]
                if woke.any():  # a core sleeps on one of these queues
                    for lane in lanes[woke].tolist():
                        self.nics[lane % self.n].wake_sleeper()
                idxs = self.register_many(objs)
                for pkt in objs:
                    pkt.injected = cycle
                tl = self.pk_size[idxs] == 1
                self._accept_new(loc[lanes, vcs], idxs, tl, cycle)
                multi = ~tl
                ip[lanes[multi], vcs[multi]] = idxs[multi]
                sent[lanes[multi], vcs[multi]] = 1
                budget[lanes] -= 1
                qlens[lanes] -= 1
            finj += had - budget

    # ------------------------------------------------------------------
    # one cycle
    # ------------------------------------------------------------------

    def step(self, cycle: int) -> None:
        for _ in range(self.bandwidth):
            movers = self._decide(cycle)
            if movers is None:
                break
            self._commit(movers, cycle)
        self._inject(cycle)
        if self.mem_nodes:
            self._mem_account(cycle)

    def _mem_account(self, cycle: int) -> None:
        """Per-cycle memory-node behaviour over the memory lanes, after
        injection: reply-buffer drain, the delegation trigger, and the
        blocked-cycle count of Figure 3."""
        injected = self.flits_injected_arr[1, self._mem_arr]
        moved = injected - self._mem_injected
        self._mem_injected = injected
        occ = self.mem_occ
        occ -= moved
        # blocked: the buffer cannot take one more worst-case reply
        full = self._mem_cap - occ < self.mem_worst
        # the node "cannot inject reply traffic" when it is blocked or the
        # reply router refused every flit this cycle (Figure 4)
        fire = self.mem_mark & (~self.mem_only_blocked | full | (moved == 0))
        if fire.any():
            # ascending node order: delegated packets draw their ids in
            # the oracle's order
            for lane in np.flatnonzero(fire).tolist():
                self.nics[self.mem_nodes[lane]]._delegate_scan(cycle)
            full = self._mem_cap - occ < self.mem_worst
        self.mem_blocked += full

    # ------------------------------------------------------------------
    # statistics helpers for the facades
    # ------------------------------------------------------------------

    def net_flits_routed(self, net_i: int) -> int:
        n = self.n
        return int(self.flits_routed[net_i * n:(net_i + 1) * n].sum())

    def net_buffered(self, net_i: int) -> int:
        n = self.n
        lo = net_i * n * self.PV
        return int(self.occ[lo:lo + n * self.PV].sum())
