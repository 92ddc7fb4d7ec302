"""Tests for repro.telemetry.blame: stall attribution and blame chains.

The two load-bearing guarantees:

* **Conservation** — every cycle a head worm is blocked is charged to
  exactly one stall class, so per-router charged totals equal the exact
  count of blocked head-worm cycles (presence minus moves), and the
  event-driven scheduler charges bit-identically to an all-awake run
  (``conftest.all_awake``) despite sleeping through stalls.  The
  memory-side rows equal the memory node's own blocked counters.
* **Read-only** — attribution and blame walking never perturb the
  simulation: counters stay bit-identical with stall attribution on,
  and everything is off (and free) when telemetry is disabled.
"""

import json

import pytest

from repro.bench.traffic import SCENARIOS, replay
from repro.config import NocConfig, delegated_replies_config
from repro.config.system import TelemetryConfig
from repro.noc import MeshTopology, MessageType, NetKind, Packet, TrafficClass
from repro.sim.engines import build_fabric
from repro.sim.metrics import collect_counters
from repro.sim.simulator import build_system, run_simulation
from repro.sweep.runner import stall_shares
from repro.telemetry import TelemetryCollector, read_trace
from repro.telemetry.blame import (
    ANY_CLS,
    CREDIT,
    N_CLASSES,
    PIPELINE,
    REPLY_BUFFER,
    STALL_CLASSES,
    SWITCH,
    BlameAccumulator,
    classify_head,
    survey_stalls,
    walk_chain,
)

import sys
sys.path.insert(0, "tests")
from conftest import all_awake, small_config


class TestTaxonomy:
    def test_eight_classes_fixed_order(self):
        assert STALL_CLASSES == (
            "pipeline", "route", "vc_alloc", "credit", "switch",
            "serialization", "eject", "reply_buffer",
        )
        assert N_CLASSES == 8

    def test_reply_buffer_is_memory_side_only(self):
        assert REPLY_BUFFER == len(STALL_CLASSES) - 1


def _line(reference=False):
    """A bare 3x1 mesh, full-mode collector attached: node 0 feeds router
    1's input port 1, whose output port 2 leads to node 2."""
    fabric = build_fabric("object", MeshTopology(3, 1), NocConfig())
    collector = TelemetryCollector(
        TelemetryConfig(enabled=True, mode="full"), fabric
    )
    fabric.attach_telemetry(collector)
    if reference:
        all_awake(fabric)
    return fabric, collector


def _worm():
    """A 9-flit GPU reply from node 0 to node 2."""
    return Packet(0, 2, MessageType.READ_REPLY, TrafficClass.GPU, 9)


class TestStallRecords:
    """The open record on the input VC, driven through the real hooks: a
    header's arrival (pipeline dwell), the network's arbitration pass and
    the collector's ``on_stall``, and the commit path's move, which
    closes it."""

    KEY = ("reply", 1, 1, 1)  # net, router, input port, traffic class
    OUT = 2

    def _arrived(self):
        """Router 1 with a worm's header arriving at cycle 4: its
        pipeline-dwell record opens at cycle 5."""
        fabric, collector = _line()
        router = fabric.reply_net.routers[1]
        ivc = router.inputs[1][0]
        pkt = _worm()
        router.net.accept(ivc, pkt, False, 4)
        router.net.accept(ivc, pkt, False, 5)
        ivc.route_out = self.OUT
        ivc.out = router.downstream[self.OUT][0]
        return collector, router, ivc, pkt

    @staticmethod
    def _decide(router, cycle):
        """The moves one arbitration pass of ``router``'s network picks
        with ``router`` awake."""
        net = router.net
        net.mark_router_active(router.rid)
        moves = []
        net.decide(cycle, moves)
        return moves

    def _move(self, ivc, cycle):
        """Commit one move of ``ivc``'s head out of ``OUT``."""
        assert ivc.route_out == self.OUT
        ivc.router.net.commit([ivc], cycle)

    def test_same_class_is_one_record(self):
        collector, router, ivc, _pkt = self._arrived()
        ready = ivc.q[0][2]
        assert ivc.stall == PIPELINE and ivc.stall_since == 5
        for cycle in range(5, ready):  # every pass re-observes the dwell
            moves = self._decide(router, cycle)
            assert not moves and ivc.stall_since == 5
        row = collector.stalls.counts[self.KEY]
        assert not any(row)  # deferred: nothing charged yet
        moves = self._decide(router, ready)
        assert moves == [ivc] and ivc.route_out == self.OUT
        self._move(ivc, ready)
        assert ivc.stall == -1
        assert row[PIPELINE] == ready - 5 and sum(row) == ready - 5

    def test_class_change_charges_old_class(self):
        collector, router, ivc, pkt = self._arrived()
        collector.on_stall(ivc, pkt, CREDIT, 8)  # 3 pipeline cycles
        self._move(ivc, 10)                      # 2 credit cycles
        row = collector.stalls.counts[self.KEY]
        assert row[PIPELINE] == 3 and row[CREDIT] == 2
        assert sum(row) == 5

    def test_zero_span_charges_nothing(self):
        collector, router, ivc, pkt = self._arrived()
        collector.on_stall(ivc, pkt, CREDIT, 10)
        self._move(ivc, 10)  # same cycle: 0 blocked cycles
        row = collector.stalls.counts[self.KEY]
        assert row[CREDIT] == 0 and sum(row) == 5

    def test_move_without_record_is_noop(self):
        collector, router, ivc, _pkt = self._arrived()
        self._move(ivc, 9)
        row = list(collector.stalls.counts[self.KEY])
        self._move(ivc, 10)  # no record open
        assert collector.stalls.counts[self.KEY] == row

    def test_flush_charges_but_keeps_records_open(self):
        collector, router, ivc, pkt = self._arrived()
        collector.on_stall(ivc, pkt, CREDIT, 10)
        collector.stalls.flush(14)
        row = collector.stalls.counts[self.KEY]
        assert row[CREDIT] == 4
        assert ivc.stall == CREDIT and ivc.stall_since == 14
        self._move(ivc, 17)  # remainder since the flush
        assert row[CREDIT] == 7

    def test_diff_reports_only_changes(self):
        collector, router, ivc, pkt = self._arrived()
        st = collector.stalls
        collector.on_stall(ivc, pkt, CREDIT, 8)
        base = st.snapshot()
        self._move(ivc, 10)
        assert st.diff(base) == {self.KEY: [0, 0, 0, 2, 0, 0, 0, 0]}
        assert st.diff(st.snapshot()) == {}

    def test_window_split_while_router_sleeps(self):
        # a worm parked behind a closed ejection gate at node 2 fills
        # router 2's VC and leaves router 1's head credit-stalled, and
        # router 1 asleep; the measured window opens mid-stall.  Its
        # record is charged exactly up to the window start and exactly
        # from it — the same, cycle for cycle, as an all-awake run.
        W, END = 40, 90
        tables = []
        for reference in (False, True):
            fabric, collector = _line(reference)
            net = fabric.reply_net
            router = net.routers[1]
            ivc = router.inputs[1][0]
            fabric.nics[2].eject_gate = lambda pkt: False
            fabric.nics[0].try_send(_worm(), 0)
            blocked = [0, 0]  # blocked head cycles before / from W
            for cycle in range(END):
                if cycle == W:
                    assert ivc.stall == CREDIT
                    if not reference:
                        assert 1 not in net._active_ids  # asleep
                    since = ivc.stall_since
                    collector.mark_window_start(W)
                    assert collector._stall_base[self.KEY][CREDIT] == W - since
                if cycle == W + 20:
                    fabric.nics[2].eject_gate = None  # reopen: drain
                present = bool(ivc.q)
                routed = router.flits_routed
                fabric.step(cycle)
                blocked[cycle >= W] += present - (router.flits_routed - routed)
            collector.finalize(END)
            assert not ivc.q  # the worm drained
            base = collector._stall_base[self.KEY]
            window = collector.stalls.diff(collector._stall_base)[self.KEY]
            assert blocked[0] > 10 and blocked[1] > 20
            assert sum(base) == blocked[0] and sum(window) == blocked[1]
            assert window[CREDIT] >= 20
            tables.append((base, window))
        assert tables[0] == tables[1]


class TestMemoryRows:
    """The ``mem`` rows are the memory side's own counters, read."""

    def test_rows_equal_window_counter_deltas(self):
        cfg = delegated_replies_config()
        cfg.telemetry.enabled = True
        cfg.telemetry.mode = "full"
        system = build_system(cfg, "HS", "canneal")
        collector = system.telemetry
        system.run(200)
        collector.mark_window_start(system.cycle)
        before = {
            m.node_id: (m.nic.blocked_cycles, m.stats.reply_backpressure_cycles)
            for m in system.memory_nodes
        }
        system.run(400)
        collector.finalize(system.cycle)
        window = collector.stalls.diff(collector._stall_base)
        total = 0
        for m in system.memory_nodes:
            blocked, backpressure = before[m.node_id]
            for port, delta in (
                (0, m.nic.blocked_cycles - blocked),
                (1, m.stats.reply_backpressure_cycles - backpressure),
            ):
                row = window.get(("mem", m.node_id, port, ANY_CLS))
                assert (row[REPLY_BUFFER] if row else 0) == delta
                assert row is None or sum(row) == delta
                total += delta
        assert total > 0
        assert collector.stall_breakdown()["mem"] == {"reply_buffer": total}

    def test_bare_fabric_reads_port_zero_only(self):
        scenario = SCENARIOS["mesh8x8_dr"]
        fabric = scenario.build()
        collector = TelemetryCollector(
            TelemetryConfig(enabled=True, mode="full"), fabric,
            scenario.mem_nodes,
        )
        fabric.attach_telemetry(collector)
        # the scenario's traffic never fills a reply buffer: fill one
        stuffed = fabric.nics[scenario.mem_nodes[0]]
        while stuffed.can_enqueue(NetKind.REPLY):
            stuffed.try_send(
                Packet(stuffed.node_id, 0, MessageType.READ_REPLY,
                       TrafficClass.GPU, 9), 0,
            )
        replay(fabric, scenario.schedule(400))
        collector.finalize(400)
        assert stuffed.blocked_cycles > 0
        counts = collector.stalls.counts
        mem = {key for key in counts if key[0] == "mem"}
        assert mem and all(key[2] == 0 for key in mem)
        for node in scenario.mem_nodes:
            row = counts.get(("mem", node, 0, ANY_CLS))
            blocked = fabric.nics[node].blocked_cycles
            assert (row[REPLY_BUFFER] if row else 0) == blocked


def _stalled_system(reference=False):
    """SC/bodytrack on the small mesh: the canonical clogging workload."""
    cfg = small_config()
    cfg.telemetry.enabled = True
    cfg.telemetry.mode = "full"
    cfg.telemetry.probe_interval = 100
    system = build_system(cfg, "SC", "bodytrack")
    if reference:
        all_awake(system.fabric, system.gpu_cores)
    return system


def _router_totals(st):
    """Charged stall cycles per (net, router), memory-side rows excluded."""
    out = {}
    for (net, rid, _port, _cls), row in st.counts.items():
        if net == "mem":
            continue
        out[(net, rid)] = out.get((net, rid), 0) + sum(row)
    return out


class TestConservation:
    N = 600

    def test_charges_equal_blocked_head_cycles(self):
        # ground truth, cycle by cycle: a head worm in an active VC either
        # moves a flit or is blocked.  Blocked cycles per router must equal
        # the stall cycles charged — i.e. exactly one class per blocked
        # head per cycle, no double or missed charging.
        system = _stalled_system(reference=True)
        nets = system.fabric._net_list
        expected = {}
        prev = {}
        for net in nets:
            for r in net.routers:
                expected[(net.name, r.rid)] = 0
        for _ in range(self.N):
            pres = {}
            for net in nets:
                for r in net.routers:
                    k = (net.name, r.rid)
                    pres[k] = sum(1 for ivc in r.active if ivc.q)
                    prev[k] = r.flits_routed
            system.run(1)
            for net in nets:
                for r in net.routers:
                    k = (net.name, r.rid)
                    expected[k] += pres[k] - (r.flits_routed - prev[k])
        st = system.telemetry.stalls
        st.flush(system.cycle)
        actual = _router_totals(st)
        assert sum(expected.values()) > 1000  # SC saturates: non-trivial
        for k in expected:
            assert actual.get(k, 0) == expected[k], k
        assert all(n >= 0 for row in st.counts.values() for n in row)

    def test_event_driven_matches_full_scan(self):
        # the optimised scheduler sleeps through stalls; deferred charging
        # must still produce bit-identical stall tables
        ref = _stalled_system(reference=True)
        opt = _stalled_system(reference=False)
        ref.run(self.N)
        opt.run(self.N)
        ref.telemetry.stalls.flush(ref.cycle)
        opt.telemetry.stalls.flush(opt.cycle)
        assert opt.telemetry.stalls.counts == ref.telemetry.stalls.counts
        assert collect_counters(opt) == collect_counters(ref)


class TestDisabled:
    def test_no_telemetry_means_no_stall_state(self):
        system = build_system(small_config(), "SC", "bodytrack")
        assert system.telemetry is None
        res = run_simulation(small_config(), "SC", "bodytrack",
                             cycles=300, warmup=100)
        assert res.stall_breakdown == {}

    def test_stall_attribution_off_is_bit_identical(self):
        base = run_simulation(small_config(), "SC", "bodytrack",
                              cycles=300, warmup=100)
        cfg = small_config()
        cfg.telemetry.enabled = True
        cfg.telemetry.mode = "light"
        res = run_simulation(cfg, "SC", "bodytrack", cycles=300, warmup=100)
        assert res.stall_breakdown == {}
        assert res.counters == base.counters

    def test_collector_skips_table_when_off(self):
        cfg = small_config()
        cfg.telemetry.enabled = True
        cfg.telemetry.mode = "light"
        system = build_system(cfg, "SC", "bodytrack")
        assert system.telemetry.stalls is None
        system.run(200)  # hooks must tolerate the None table


class TestBreakdown:
    def test_enabled_run_reports_cpu_and_gpu_groups(self):
        cfg = small_config()
        cfg.telemetry.enabled = True
        cfg.telemetry.mode = "full"
        res = run_simulation(cfg, "SC", "bodytrack", cycles=400, warmup=200)
        assert set(res.stall_breakdown) >= {"CPU", "GPU"}
        for group, classes in res.stall_breakdown.items():
            assert set(classes) <= set(STALL_CLASSES)
            assert all(n > 0 for n in classes.values())
        assert sum(res.stall_breakdown["GPU"].values()) > 0

    def test_breakdown_excludes_warmup(self):
        cfg = small_config()
        cfg.telemetry.enabled = True
        cfg.telemetry.mode = "full"
        long = run_simulation(cfg, "SC", "bodytrack", cycles=400, warmup=200)
        short = run_simulation(cfg, "SC", "bodytrack", cycles=100, warmup=200)
        total = lambda r: sum(
            n for g in r.stall_breakdown.values() for n in g.values()
        )
        assert total(short) < total(long)

    def test_stall_shares_normalised(self):
        shares = stall_shares({
            "CPU": {"credit": 30, "eject": 10},
            "GPU": {},
            "mem": {"reply_buffer": 7},
        })
        assert shares["CPU"] == {"credit": 0.75, "eject": 0.25}
        assert shares["mem"] == {"reply_buffer": 1.0}
        assert "GPU" not in shares  # empty groups dropped
        assert stall_shares({}) == {}


class TestBlameChains:
    def _saturated(self):
        system = _stalled_system()
        system.run(800)
        return system

    def test_classify_matches_walk_and_is_readonly(self):
        system = self._saturated()
        nets = system.fabric._net_list
        before = collect_counters(system)
        checked = 0
        for net in nets:
            for r in net.routers:
                for ivc in list(r.active):
                    klass, nxt = classify_head(ivc, system.cycle)
                    if klass is None:
                        continue
                    chain = walk_chain(ivc, system.cycle)
                    assert chain[0]["class"] == klass
                    assert chain[0]["node"] == r.rid
                    if klass in ("credit", "vc_alloc"):
                        assert nxt is not None
                    checked += 1
        assert checked > 10  # SC at cycle 800: plenty of blocked heads
        assert collect_counters(system) == before  # walker is read-only

        # ... and is the arbiter's own verdict: on a saturated bare-fabric
        # replay (no ejection gates, one pass a cycle) the state
        # classify_head reads before a step is the state decide reads in
        # it, so every head it calls blocked must carry that class in
        # InputVC.stall afterwards — set by decide this cycle, or kept
        # from the pass a sleeping router last ran (the §6.2 wake rules
        # say it cannot have changed) — and every head it calls movable
        # moved, lost the switch, or moved and was refilled.
        scenario = SCENARIOS["mesh8x8_dr"]
        fabric = scenario.build()
        fabric.attach_telemetry(TelemetryCollector(
            TelemetryConfig(enabled=True, mode="full"), fabric,
            scenario.mem_nodes,
        ))
        schedule = scenario.schedule(700)
        replay(fabric, schedule[:400])
        blocked = 0
        for cycle in range(400, 700):
            verdict = {
                ivc: classify_head(ivc, cycle)[0]
                for net in fabric._net_list
                for r in net.routers
                for ivc in r.active
            }
            replay(fabric, schedule[cycle:cycle + 1], start=cycle)
            for ivc, klass in verdict.items():
                if klass is None:
                    assert ivc.stall in (-1, SWITCH, PIPELINE)
                else:
                    assert STALL_CLASSES[ivc.stall] == klass
                    blocked += 1
        assert blocked > 10_000

    def test_survey_groups_by_terminal(self):
        system = self._saturated()
        groups = survey_stalls(system.fabric._net_list, system.cycle)
        assert groups
        total_chains = sum(g["chains"] for g in groups.values())
        assert total_chains > 10
        for (node, tclass), g in groups.items():
            assert g["sample"][-1]["node"] == node
            assert g["sample"][-1]["class"] == tclass
            assert len(g["sample"]) == g["max_depth"]
            assert sum(g["victims"].values()) == g["chains"]

    def test_chain_terminates_at_reply_buffer(self):
        # the Fig. 3 loop: on saturated SC some chain must bottom out at
        # a memory node whose reply injection buffer is full
        system = self._saturated()
        groups = survey_stalls(system.fabric._net_list, system.cycle)
        terminals = {tclass for (_node, tclass) in groups}
        assert "reply_buffer" in terminals
        (node, _), g = next(
            (k, g) for k, g in groups.items() if k[1] == "reply_buffer"
        )
        assert node in {n.node_id for n in system.memory_nodes}
        assert g["sample"][-1] == {
            "node": node, "net": "mem", "class": "reply_buffer"
        }
        # the hop before the terminal is the closed ejection gate
        assert g["sample"][-2]["class"] == "eject"


@pytest.fixture(scope="module")
def saturated():
    """SC at cycle 800, only read by the walker tests below."""
    system = _stalled_system()
    system.run(800)
    return system


def _blocked_heads(system):
    return [ivc for net in system.fabric._net_list for r in net.routers
            for ivc in r.active if classify_head(ivc, system.cycle)[0]]


FOLLOWED = ("credit", "vc_alloc")


class TestWalkChain:
    def test_chain_follows_credit_and_vc_alloc_to_its_terminal(self, saturated):
        # every hop but the terminal (and a reply_buffer root after it)
        # is a followed stall, and a chain the hop limit did not cut
        # never ends on one; both followed classes occur
        followed = set()
        for ivc in _blocked_heads(saturated):
            chain = walk_chain(ivc, saturated.cycle)
            assert len(chain) < 64
            if chain[-1]["class"] == "reply_buffer":
                chain = chain[:-1]
            assert chain[-1]["class"] not in FOLLOWED
            for hop in chain[:-1]:
                assert hop["class"] in FOLLOWED
                followed.add(hop["class"])
        assert followed == set(FOLLOWED)

    @pytest.mark.parametrize("max_hops", [1, 4])
    def test_chain_is_cut_at_max_hops(self, saturated, max_hops):
        cycle = saturated.cycle
        cut = 0
        for ivc in _blocked_heads(saturated):
            chain = walk_chain(ivc, cycle)
            if not all(h["class"] in FOLLOWED for h in chain[:max_hops]):
                continue  # ends by the limit: nothing to cut
            short = walk_chain(ivc, cycle, max_hops=max_hops)
            assert len(short) == max_hops
            assert short == chain[:max_hops]
            assert short[-1]["class"] in FOLLOWED
            cut += 1
        assert cut > 0

    def test_vcs_waiting_on_each_other_end_in_a_cyclic_hop(self):
        # four full worms around a 2x2 ring, each out of credits into the
        # next: no dimension-order route makes this, the walker must
        # still stop
        topo = MeshTopology(2, 2)
        fabric = build_fabric("object", topo, NocConfig())
        net = fabric.request_net
        ring = [0, 1, 3, 2]
        ivcs = [
            net.routers[ring[i - 1]].downstream[topo.port_of[ring[i - 1]][rid]][0]
            for i, rid in enumerate(ring)
        ]
        for i, ivc in enumerate(ivcs):
            pkt = Packet(ring[i - 1], ring[i - 2], MessageType.WRITE_REQ,
                         TrafficClass.CPU, ivc.router.vc_cap)
            for flit in range(pkt.size_flits):
                net.accept(ivc, pkt, flit == pkt.size_flits - 1, 0)
            ivc.route_out = topo.port_of[ring[i]][ring[(i + 1) % 4]]
            ivc.out = ivcs[(i + 1) % 4]
        cycle = 10
        for i, ivc in enumerate(ivcs):
            chain = walk_chain(ivc, cycle)
            assert [h["class"] for h in chain] == ["credit"] * 4 + ["cyclic"]
            assert [h["node"] for h in chain] == (ring[i:] + ring[:i + 1])
        groups = survey_stalls([net], cycle)
        assert sorted(groups) == [(rid, "cyclic") for rid in sorted(ring)]
        assert all(g["chains"] == 1 and g["max_depth"] == 5
                   for g in groups.values())


class TestBlameAccumulator:
    def _group(self, chains, depth, cls="CPU"):
        sample = [{"node": 0, "net": "request", "class": "x"}] * depth
        return {
            "chains": chains,
            "victims": {cls: chains},
            "max_depth": depth,
            "sample": sample,
        }

    def test_majority_terminal_wins(self):
        acc = BlameAccumulator(5)
        acc.feed({(5, "eject"): self._group(3, 2),
                  (5, "reply_buffer"): self._group(8, 6),
                  (9, "credit"): self._group(99, 9)})  # other node: ignored
        rc = acc.root_cause()
        assert rc["node"] == 5
        assert rc["class"] == "reply_buffer"
        assert rc["chains"] == 8 and rc["total_chains"] == 11
        assert rc["max_depth"] == 6 and len(rc["sample"]) == 6
        assert rc["walks"] == 1

    def test_reply_buffer_wins_ties(self):
        acc = BlameAccumulator(5)
        acc.feed({(5, "eject"): self._group(4, 3),
                  (5, "reply_buffer"): self._group(4, 3)})
        assert acc.root_cause()["class"] == "reply_buffer"

    def test_accumulates_across_probes(self):
        acc = BlameAccumulator(5)
        acc.feed({(5, "eject"): self._group(2, 2, cls="CPU")})
        acc.feed({(5, "eject"): self._group(3, 4, cls="GPU")})
        rc = acc.root_cause()
        assert rc["chains"] == 5
        assert rc["victims"] == {"CPU": 2, "GPU": 3}
        assert rc["walks"] == 2

    def test_no_terminating_chains_is_explained(self):
        acc = BlameAccumulator(5)
        acc.feed({(9, "eject"): self._group(4, 2)})
        rc = acc.root_cause()
        assert rc["chains"] == 0
        assert "injection-bandwidth" in rc["note"]


class TestEpisodeRootCause:
    def test_saturated_run_attributes_reply_buffer(self, tmp_path):
        # the acceptance scenario: saturated mesh, clogging episodes must
        # carry root_cause records naming a memory node's reply buffer
        cfg = small_config()
        cfg.telemetry.enabled = True
        cfg.telemetry.mode = "full"
        cfg.telemetry.trace_path = str(tmp_path / "trace.jsonl")
        cfg.telemetry.probe_interval = 100
        cfg.telemetry.clog_threshold = 0.8
        cfg.telemetry.clog_min_windows = 2
        res = run_simulation(cfg, "SC", "bodytrack", cycles=1500, warmup=500)
        recs = list(read_trace(cfg.telemetry.trace_path))
        mem_nodes = next(r for r in recs if r.get("rec") == "meta")["mem_nodes"]

        stalls = [r for r in recs if r.get("rec") == "stall"]
        assert stalls and any(r["net"] == "mem" for r in stalls)

        clogs = [r for r in recs if r.get("rec") == "clog"]
        attributed = [r for r in clogs if r.get("root_cause")]
        assert attributed
        assert any(r["root_cause"]["class"] == "reply_buffer"
                   for r in attributed)
        for r in attributed:
            rc = r["root_cause"]
            assert rc["node"] == r["node"]
            assert rc["node"] in mem_nodes
        # trace records are JSON round-trippable (sample chains included)
        json.dumps(attributed)
        # and the same run surfaces a measured-window breakdown
        assert res.stall_breakdown.get("CPU")
