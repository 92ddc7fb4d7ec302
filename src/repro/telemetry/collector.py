"""The telemetry collector: hooks, window probes and clogging detection.

One :class:`TelemetryCollector` instance is attached to a
:class:`~repro.noc.network.NocFabric` (``fabric.attach_telemetry``); the
NICs, routers and networks then call its ``on_*`` hooks from the five
packet lifecycle points (inject, VC allocation, head arrival at the
destination router, delivery, delegation).  Every hook site is a single
``is not None`` check when telemetry is disabled, which is what keeps the
disabled path near-zero-cost and bit-identical to an uninstrumented run.

The *enabled* hot path is a ring-buffer event pipeline
(:mod:`repro.telemetry.ring`): each hook bumps a preallocated per-code
counter, folds delivered latencies into preallocated bucket-counter rows
(no dict lookups, no ``LogHistogram`` objects on the hot path) and
appends one fixed-width raw tuple to the per-network event ring — a
single C-level deque append.  Sampling and serialisation happen in
deferred batches at window/finalize boundaries, where one
:class:`~repro.telemetry.trace.JsonlTraceSink` turns ring tuples into
trace lines.  The ring doubles as a **flight recorder**: it always
retains the most recent events, and the collector writes them out as a
small trace of their own when the clogging detector *opens* an episode
or a fault fires.

Two instrumentation tiers (``TelemetryConfig.mode``):

* ``"light"`` (default) — rings, histograms, windowed probes, clogging
  detection with probe-time blame chains, flight recorder, metrics
  registry.  Cheap enough to leave on everywhere.
* ``"full"`` — adds exact per-cycle stall attribution (the
  :class:`~repro.telemetry.blame.StallTable`): every blocked head-worm
  cycle is charged to one class, through a record on the input VC that
  is touched only when its class changes or the worm moves.  On the
  clogged 8x8 full system it costs ~20% host time over telemetry off
  (``fullsys8`` 4.95 vs ``fullsys8_tel`` 4.12 kcyc/s; DESIGN.md §8).

On a full system it is also Fig. 2's locality oracle, every GPU core's
``miss_observer``.  Everything the collector reads is state the
simulator already maintains; it never mutates simulation state, so
enabling telemetry cannot change results.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.config.system import TelemetryConfig
from repro.telemetry.blame import (
    ANY_CLS,
    BlameAccumulator,
    STALL_CLASSES,
    StallTable,
    survey_stalls,
)
from repro.telemetry.hist import LogHistogram
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.ring import EventRing, merge_events
from repro.telemetry.trace import JsonlTraceSink, PACKET_EVENTS, TRACE_SCHEMA

#: counter-array histogram row length: covers every bucket index a
#: 64-bit latency can map to at the default 2^5 sub-bucket resolution.
_HIST_BUCKETS = 1920

#: hard cap on flight-recorder dump files per run (noise guard).
_MAX_FLIGHT_DUMPS = 8


class CloggingDetector:
    """Turns a windowed per-node pressure signal into clogging episodes.

    A node whose signal is ``>= threshold`` for at least ``min_windows``
    consecutive windows is *clogged*; the episode closes when the signal
    drops below the threshold (or at finalize).  ``severity`` is the mean
    signal over the episode, ``peak`` its maximum.  The optional
    ``on_open`` callback fires the moment an episode *opens* (its hot
    streak first reaches ``min_windows``) — the flight recorder's dump
    trigger, which cannot wait for the close.
    """

    def __init__(self, threshold: float, min_windows: int) -> None:
        self.threshold = threshold
        self.min_windows = max(1, int(min_windows))
        #: node -> open-episode accumulator
        self._open: Dict[int, Dict[str, float]] = {}
        self.episodes: List[Dict] = []
        #: called with ``(node, end_cycle)`` when an episode opens.
        self.on_open: Optional[Callable[[int, int], None]] = None

    def update(self, node: int, start: int, end: int, signal: float) -> Optional[Dict]:
        """Feed one window ``[start, end]``; returns an episode if one closed."""
        st = self._open.get(node)
        if signal >= self.threshold:
            if st is None:
                st = self._open[node] = {"start": start, "windows": 0,
                                         "sum": 0.0, "peak": signal}
            st["windows"] += 1
            st["sum"] += signal
            st["end"] = end
            st["peak"] = max(st["peak"], signal)
            if st["windows"] == self.min_windows and self.on_open is not None:
                self.on_open(node, end)
            return None
        if st is not None:
            del self._open[node]
            return self._close(node, st)
        return None

    def _close(self, node: int, st: Dict[str, float]) -> Optional[Dict]:
        if st["windows"] < self.min_windows:
            return None
        episode = {
            "rec": "clog", "node": node, "start": int(st["start"]),
            "end": int(st["end"]), "windows": int(st["windows"]),
            "severity": round(st["sum"] / st["windows"], 4),
            "peak": round(st["peak"], 4),
        }
        self.episodes.append(episode)
        return episode

    def flush(self) -> List[Dict]:
        """Close every still-open episode (end of run)."""
        closed = []
        for node in sorted(self._open):
            episode = self._close(node, self._open[node])
            if episode is not None:
                closed.append(episode)
        self._open.clear()
        return closed


class _Held:
    """The locality oracle's watcher on one GPU L1 cache or MSHR file
    (its ``watcher`` slot): ``held[block]`` counts the watched caches and
    files that hold ``block``, and a block held by none has no key."""

    __slots__ = ("held", "readers")

    def __init__(self, held: Dict[int, int]) -> None:
        self.held = held
        #: GPU cores that read the watched cache (a cluster's slices
        #: have one per DC-L1 / DynEB port)
        self.readers = 0

    @classmethod
    def attach(cls, target, held: Dict[int, int]) -> None:
        """Watch ``target`` (one more reader if it is watched already);
        the collector attaches at build, while every cache is empty."""
        if target.watcher is None:
            target.watcher = cls(held)
        target.watcher.readers += 1

    def __call__(self, block: int, delta: int) -> None:
        held = self.held
        n = held.get(block, 0) + delta
        if n:
            held[block] = n
        else:
            del held[block]

    def unview(self, cache) -> None:
        """A core stopped reading ``cache`` (a DynEB port went private);
        once no core reads it, what it holds is no core's."""
        self.readers -= 1
        if not self.readers:
            cache.watcher = None
            for block in cache.blocks():
                self(block, -1)


class TelemetryCollector:
    """Observability state attached to one fabric for one run."""

    def __init__(
        self,
        cfg: TelemetryConfig,
        fabric,
        mem_nodes: Tuple[int, ...] = (),
        memory_nodes: Sequence = (),
        gpu_cores: Sequence = (),
    ) -> None:
        """``mem_nodes`` are the memory-node ids; ``memory_nodes`` and
        ``gpu_cores`` the :class:`~repro.sim.memory_node.MemoryNode` and
        GPU core endpoints a full system has (a bare fabric has none)."""
        self.cfg = cfg
        self.fabric = fabric
        self.mem_nodes = tuple(mem_nodes)
        #: the trace writer; None = aggregate-only (no trace file), and
        #: then no trace record is built either
        self.sink: Optional[JsonlTraceSink] = (
            JsonlTraceSink(cfg.trace_path) if cfg.trace_path else None
        )
        rate = min(1.0, max(0.0, cfg.sample_rate))
        self._sample_all = rate >= 1.0
        self._sample_below = int(rate * (1 << 32))
        self.detector = CloggingDetector(cfg.clog_threshold, cfg.clog_min_windows)
        self.detector.on_open = self._on_clog_open
        #: exact stall attribution (None unless ``mode == "full"``):
        #: per-(net, router, port, class) blocked-head-worm cycle counters,
        #: plus the memory side's reply-buffer counters read as rows
        self.stalls: Optional[StallTable] = None
        if cfg.mode == "full":
            self.stalls = StallTable(
                fabric._net_list,
                [(("mem", node, 0, ANY_CLS), fabric.nics[node], "blocked_cycles")
                 for node in self.mem_nodes]
                + [(("mem", m.node_id, 1, ANY_CLS), m.stats,
                    "reply_backpressure_cycles") for m in memory_nodes],
            )
        self._stall_base: Dict = {}
        #: node -> blame accumulator for its currently-hot episode
        self._blame: Dict[int, BlameAccumulator] = {}
        self.windows: List[Dict] = []
        #: per-code packet-event counts (indexed like PACKET_EVENTS);
        #: exact whatever the ring does, because they are bumped at
        #: append time, not reconstructed from (overwritable) ring slots
        self._ev: List[int] = [0] * len(PACKET_EVENTS)
        self._fault_events: Dict[str, int] = {}
        #: counter-array latency histograms: row per (net, cls) pair,
        #: indexed ``(net << 1) | cls``; plus exact latency totals
        self._hist_rows: List[List[int]] = [
            [0] * _HIST_BUCKETS for _ in range(4)
        ]
        self._hist_tot: List[int] = [0, 0, 0, 0]
        #: bounded event rings (request, reply): the flight recorder's
        #: retention, and the trace writer's staging buffer
        self._rings: List[EventRing] = [
            EventRing(cfg.ring_events), EventRing(cfg.ring_events)
        ]
        self._trace_records = 0
        self._flight_dir = cfg.flight_dir
        self.flight_dumps: List[str] = []
        #: nodes whose episode opened during the probe in progress
        self._opened: List[int] = []
        self.metrics = MetricsRegistry()
        #: the locality oracle's (misses, remotely held) counts, since
        #: cycle 0; the metrics report them over the measured window
        self._locality = [0, 0]
        self._locality_base = (0, 0)
        #: block -> how many GPU L1 caches and MSHR files hold it, kept
        #: by watchers on each (:class:`_Held`); the oracle's answer
        self._held: Dict[int, int] = {}
        for core in gpu_cores:
            core.miss_observer = self._observe_miss
            _Held.attach(core.mshrs, self._held)
            l1 = core.l1
            cluster = getattr(l1, "cluster", None)  # DC-L1 / DynEB
            private = getattr(l1, "private", None if cluster else l1)
            if private is not None:
                _Held.attach(private.cache, self._held)
            for cache in cluster.slices if cluster is not None else ():
                _Held.attach(cache, self._held)
        self.interval = max(1, int(cfg.probe_interval))
        self._window_start = 0
        self._next_probe = self.interval - 1
        self._finalized = False
        # previous-probe snapshots of the monotone counters we rate-diff
        nets = tuple(fabric._net_list)
        self._nets = nets
        self._net_links = tuple(
            sum(r.nports - 1 for r in net.routers) for net in nets
        )
        self._prev_flits = [net.total_flits_routed() for net in nets]
        self._prev_pkts = [net.packets_delivered for net in nets]
        self._prev_ej = [net.flits_delivered for net in nets]
        self._prev_inj = sum(nic.flits_injected for nic in fabric.nics)
        self._prev_blocked = {
            node: fabric.nics[node].blocked_cycles for node in self.mem_nodes
        }
        self._meta = meta = {
            "rec": "meta",
            "schema": TRACE_SCHEMA,
            "nodes": fabric.topology.n,
            "mem_nodes": list(self.mem_nodes),
            "separate_networks": fabric.separate_networks,
            "mode": cfg.mode,
            "sample_rate": rate,
            "probe_interval": self.interval,
            "clog_threshold": cfg.clog_threshold,
            "clog_min_windows": self.detector.min_windows,
            "stall_attribution": self.stalls is not None,
            "flight_recorder": True,
            "ring_events": self._rings[0].capacity,
        }
        width = getattr(fabric.topology, "width", 0)
        height = getattr(fabric.topology, "height", 0)
        if width and height:
            meta["mesh"] = [width, height]
        if self.sink is not None:
            self.sink.record(meta)

    # -- packet lifecycle hooks ----------------------------------------

    def _event(self, code: int, pkt, cycle: int, value: int) -> None:
        """Count lifecycle event ``code`` and append its raw fixed-width
        tuple to ``pkt``'s network ring — a single C call, no packing,
        no dicts.  A tracing run drains before the ring would overwrite
        an undrained slot."""
        self._ev[code] += 1
        ring = self._rings[pkt.net]
        ring.events.append(
            (code, pkt.mtype, pkt.cls, pkt.net, pkt.size_flits,
             pkt.src, pkt.dst, cycle, pkt.pid, pkt.block, value)
        )
        if self.sink is not None:
            ring.head += 1
            if ring.head - ring.drained >= ring.capacity:
                self._drain_events()

    def on_inject(self, pkt, cycle: int) -> None:
        """A NIC accepted ``pkt`` into its injection queue."""
        self._event(0, pkt, cycle, -1)

    def on_vc_alloc(self, pkt, cycle: int, vc: int) -> None:
        """``pkt``'s header won an injection VC and entered the network."""
        self._event(1, pkt, cycle, vc)

    def on_head(self, pkt, cycle: int) -> None:
        """``pkt``'s header flit reached its destination router."""
        self._event(2, pkt, cycle, -1)

    def on_deliver(self, pkt, cycle: int) -> None:
        """``pkt`` fully ejected at its destination NIC."""
        latency = cycle - pkt.created
        if latency < 0 or pkt.created < 0:
            latency = 0
        # inline bucket_index(latency) on the preallocated counter row
        key = (pkt.net << 1) | pkt.cls
        row = self._hist_rows[key]
        if latency < 64:
            row[latency] += 1
        else:
            shift = latency.bit_length() - 6
            row[((shift + 1) << 5) + ((latency >> shift) & 31)] += 1
        self._hist_tot[key] += latency
        self._event(3, pkt, cycle, latency)

    def on_delegate(self, reply, delegated, cycle: int) -> None:
        """A memory node converted ``reply`` into ``delegated`` (1-flit
        delegated request); the trace value is the delegate target node."""
        self._event(4, reply, cycle, delegated.dst)

    @property
    def events(self) -> Dict[str, int]:
        """Event counts: the five lifecycle events plus any fault events."""
        out = {name: self._ev[i] for i, name in enumerate(PACKET_EVENTS)}
        out.update(self._fault_events)
        return out

    # -- fault-injection hooks (repro.faults) ---------------------------

    def on_fault_event(self, rec: Dict) -> None:
        """The fault controller reports a discard, watchdog fire, etc.

        ``rec`` is a complete trace record (``rec="fault"``) whose
        ``fault`` key names the event (``flit_drop`` / ``fault_stall``);
        it is counted in :attr:`events`, written to the trace unsampled
        (faults are rare and every one matters) and
        — first occurrence per run — triggers a flight-recorder dump of
        the events leading up to it.
        """
        name = rec.get("fault", "fault")
        first = name not in self._fault_events
        self._fault_events[name] = self._fault_events.get(name, 0) + 1
        if self.sink is not None:
            self.sink.record(rec)
        if first:
            self._flight_dump(f"fault-{name}", rec.get("cycle", -1))

    # -- stall-attribution hooks (mode == "full" only) -------------------

    def _observe_miss(self, core, block: int) -> None:
        """A primary L1 read miss: does another GPU core hold ``block``
        in its L1 or MSHRs (a remote request would hit, or delay-hit)?
        The missing core's own L1 view and MSHR file do not hold it, so
        any holder counted is another core's."""
        counts = self._locality
        counts[0] += 1
        if block in self._held:
            counts[1] += 1

    def on_stall(self, ivc, pkt, klass: int, cycle: int) -> None:
        """Head worm ``pkt`` of input VC ``ivc`` is blocked on stall class
        ``klass`` from this cycle; ``PhysicalNetwork`` calls this only when
        ``klass`` differs from ``ivc.stall``.  The VC's open record is
        charged its span so far and re-classed, or opened (deferred
        charging; see :class:`~repro.telemetry.blame.StallTable`).  The
        router's move closes it."""
        old = ivc.stall
        if old < 0:
            ivc.stall_row = self.stalls.row(ivc, pkt.cls)
        else:
            ivc.stall_row[old] += cycle - ivc.stall_since
        ivc.stall = klass
        ivc.stall_since = cycle

    # -- deferred ring drains and flight dumps ---------------------------

    def _drain_events(self) -> None:
        """Flush undrained ring events to the trace, in cycle order.

        Called at window/finalize boundaries, and from the hooks when a
        tracing ring is about to overwrite an undrained slot — so a
        traced run loses nothing to ring wraparound.  Sampling happens
        here, off the hot path: a Knuth hash of the pid keeps or drops a
        packet's whole lifecycle together and never touches the
        simulation's RNG streams.
        """
        sink = self.sink
        if sink is None:
            return
        batches = [b for b in (r.take_pending() for r in self._rings) if b]
        if not batches:
            return
        sample_all = self._sample_all
        below = self._sample_below
        written = 0
        for ev in merge_events(*batches):
            if not sample_all and ((ev[8] * 2654435761) & 0xFFFFFFFF) >= below:
                continue
            sink.event(ev)
            written += 1
        self._trace_records += written

    def _on_clog_open(self, node: int, cycle: int) -> None:
        """Detector callback: a node's hot streak reached ``min_windows``.

        Every node that opens at one probe would snapshot the same two
        rings, so the probe collects them and writes one dump for all.
        """
        self._opened.append(node)

    def _flight_dump(self, trigger: str, cycle: int,
                     nodes: Sequence[int] = ()) -> None:
        """Write the retained ring events out as one small trace file.

        A ``meta`` line (the run's, plus what triggered the dump) and
        then every retained event, unsampled, as the trace would carry
        it.  No-op unless ``flight_dir`` is set; at most
        :data:`_MAX_FLIGHT_DUMPS` files per run.  The path is appended
        to :attr:`flight_dumps`.
        """
        if not self._flight_dir or len(self.flight_dumps) >= _MAX_FLIGHT_DUMPS:
            return
        events = merge_events(*(r.snapshot() for r in self._rings))
        meta = dict(self._meta, dump=trigger, dump_cycle=cycle,
                    events_retained=len(events))
        if nodes:
            meta["dump_nodes"] = list(nodes)
        directory = Path(self._flight_dir)
        directory.mkdir(parents=True, exist_ok=True)
        path = str(directory / f"flight-c{cycle}-{trigger}.jsonl")
        dump = JsonlTraceSink(path)
        try:
            dump.record(meta)
            for ev in events:
                dump.event(ev)
        finally:
            dump.close()
        self.flight_dumps.append(path)
        self.metrics.counter("flight.dumps").inc()
        if self.sink is not None:
            self.sink.record(
                {"rec": "flight", "trigger": trigger, "cycle": cycle,
                 "nodes": list(nodes), "path": path}
            )

    # -- windowed probes -------------------------------------------------

    def on_cycle(self, cycle: int) -> None:
        """Called once per simulated cycle (after the fabric stepped)."""
        if cycle >= self._next_probe:
            self._probe(cycle)
            self._next_probe = cycle + self.interval

    def _probe(self, cycle: int) -> None:
        # batch boundary: packet events stream out before the window
        # record that closes over them
        self._drain_events()
        sink = self.sink
        interval = max(1, cycle - self._window_start + 1)
        record: Dict = {"rec": "win", "cycle": cycle, "interval": interval,
                        "nets": {}}
        for i, net in enumerate(self._nets):
            flits = net.total_flits_routed()
            pkts = net.packets_delivered
            ej = net.flits_delivered
            links = self._net_links[i]
            util = ((flits - self._prev_flits[i])
                    / (interval * links * net.bandwidth) if links else 0.0)
            record["nets"][net.name] = {
                "flits": flits - self._prev_flits[i],
                "pkts": pkts - self._prev_pkts[i],
                "ej_rate": round((ej - self._prev_ej[i]) / interval, 4),
                "link_util": round(util, 4),
                "buffered": net.buffered_flits(),
            }
            self._prev_flits[i] = flits
            self._prev_pkts[i] = pkts
            self._prev_ej[i] = ej
        inj = sum(nic.flits_injected for nic in self.fabric.nics)
        record["inj_rate"] = round((inj - self._prev_inj) / interval, 4)
        self._prev_inj = inj
        mem: Dict[str, Dict[str, float]] = {}
        signals: Dict[int, float] = {}
        for node in self.mem_nodes:
            nic = self.fabric.nics[node]
            occupancy = nic._reply_occ / max(1, nic.reply_buffer_flits)
            blocked = (nic.blocked_cycles - self._prev_blocked[node]) / interval
            self._prev_blocked[node] = nic.blocked_cycles
            mem[str(node)] = {"occ": round(occupancy, 4),
                              "blocked": round(blocked, 4)}
            signals[node] = max(occupancy, blocked)
        # one blame survey per probe covers every hot node: walk each
        # blocked head worm's chain, then fold the chains into each hot
        # node's accumulator so a closing episode can name its root cause.
        # The survey is read-only and windowed, so it runs in light mode
        # too — episodes carry root causes even without the StallTable.
        hot = [n for n, s in signals.items() if s >= self.detector.threshold]
        if hot:
            groups = survey_stalls(self._nets, cycle)
            for node in hot:
                self._blame.setdefault(node, BlameAccumulator(node)).feed(groups)
        for node in self.mem_nodes:
            episode = self.detector.update(node, self._window_start, cycle,
                                           signals[node])
            if episode is not None:
                acc = self._blame.pop(node, None)
                if acc is not None:
                    episode["root_cause"] = acc.root_cause()
                if sink is not None:
                    sink.record(episode)
            elif signals[node] < self.detector.threshold:
                # hot blip too short to count as an episode: drop its blame
                self._blame.pop(node, None)
        if self._opened:
            self._flight_dump("clog", cycle, sorted(self._opened))
            self._opened.clear()
        if mem:
            record["mem"] = mem
        self.windows.append(record)
        if sink is not None:
            sink.record(record)
        self._window_start = cycle + 1

    # -- measured-window stall accounting ---------------------------------

    def mark_window_start(self, cycle: int) -> None:
        """Flush and snapshot stall counters at the start of the measured
        window so :meth:`stall_breakdown` and the locality counts report
        measured-window cycles only."""
        self._locality_base = tuple(self._locality)
        st = self.stalls
        if st is not None:
            st.flush(cycle)
            self._stall_base = st.snapshot()

    def stall_breakdown(self) -> Dict[str, Dict[str, int]]:
        """Measured-window stall cycles aggregated by victim group.

        ``{"CPU" | "GPU" | "mem": {stall class: cycles}}`` — CPU/GPU rows
        sum the router-side counters over the victim worm's traffic
        class; the ``mem`` row carries the memory-side reply-buffer
        pressure counters.  Empty when stall attribution is off (always
        in ``light`` mode).
        """
        st = self.stalls
        if st is None:
            return {}
        out: Dict[str, Dict[str, int]] = {}
        for (net, _rid, _port, cls), row in st.diff(self._stall_base).items():
            if net == "mem":
                group = "mem"
            else:
                group = "CPU" if cls == 0 else "GPU"
            bucket = out.setdefault(group, {})
            for idx, n in enumerate(row):
                if n:
                    name = STALL_CLASSES[idx]
                    bucket[name] = bucket.get(name, 0) + n
        return out

    # -- end of run -------------------------------------------------------

    def latency_histogram(self, net: int, cls: int) -> LogHistogram:
        """The (possibly empty) histogram for one (net, class) pair.

        Rebuilt on demand from the counter-array row: bucket counts and
        the total are exact; min/max carry bucket resolution.
        """
        return self._row_histogram((int(net) << 1) | int(cls))

    def _row_histogram(self, key: int) -> LogHistogram:
        row = self._hist_rows[key]
        hist = LogHistogram.from_sparse(
            {idx: n for idx, n in enumerate(row) if n}
        )
        hist.total = self._hist_tot[key]
        return hist

    def metrics_snapshot(self) -> Dict[str, float]:
        """Flat metrics dict: registered counters/gauges plus the
        collector's own built-ins (event counts, windows, episodes,
        flight dumps, trace records)."""
        m = self.metrics
        for i, name in enumerate(PACKET_EVENTS):
            m.gauge(f"events.{name}").set(self._ev[i])
        for name, n in self._fault_events.items():
            m.gauge(f"events.{name}").set(n)
        m.gauge("windows").set(len(self.windows))
        m.gauge("clog_episodes").set(len(self.detector.episodes))
        m.gauge("trace_records").set(self._trace_records)
        m.gauge("ring_retained").set(sum(len(r) for r in self._rings))
        for name, n, base in zip(("misses", "remote"), self._locality,
                                 self._locality_base):
            m.gauge(f"locality.{name}").set(n - base)
        return m.snapshot()

    def finalize(self, cycle: int) -> None:
        """Flush rings and open episodes; a traced run then writes its
        histogram, stall and summary records and closes the trace."""
        if self._finalized:
            return
        self._finalized = True
        self._drain_events()
        st = self.stalls
        if st is not None:
            st.flush(cycle)
        closed = self.detector.flush()
        for episode in closed:
            acc = self._blame.pop(episode["node"], None)
            if acc is not None:
                episode["root_cause"] = acc.root_cause()
        sink = self.sink
        if sink is None:
            return
        for episode in closed:
            sink.record(episode)
        for key in range(4):
            hist = self._row_histogram(key)
            if not hist.count:
                continue
            sink.record(dict(hist.to_dict(), rec="hist",
                             net="request" if (key >> 1) == 0 else "reply",
                             cls="CPU" if (key & 1) == 0 else "GPU"))
        if st is not None:
            for (net, rid, port, cls), row in sorted(st.counts.items()):
                classes = {STALL_CLASSES[i]: n for i, n in enumerate(row) if n}
                if classes:
                    sink.record({
                        "rec": "stall", "net": net, "router": rid, "port": port,
                        "cls": "CPU" if cls == 0 else ("GPU" if cls == 1 else "any"),
                        "classes": classes,
                    })
        sink.record({
            "rec": "summary", "cycle": cycle, "events": self.events,
            "windows": len(self.windows),
            "episodes": len(self.detector.episodes),
            "metrics": self.metrics_snapshot(),
        })
        sink.close()
