"""Tests for repro.telemetry: histograms, tracing, collector, CLI.

Covers the subsystem layers (bucketed histograms, event rings, the
trace writer and reader, metrics registry, collector/detector with the
flight recorder), the simulator integration (bit-identical results
with telemetry on vs. off, percentile accuracy against exact samples)
and the ``python -m repro telemetry`` reader CLI, including one-line
errors on unknown trace versions.
"""

import itertools
import json
from collections import defaultdict

import pytest

from repro.__main__ import main
from repro.config import SystemConfig
from repro.config.loader import config_from_dict
from repro.noc import packet
from repro.noc.packet import MessageType, NetKind, TrafficClass
from repro.sim.metrics import collect_counters, derive_result
from repro.sim.simulator import build_system, run_simulation
from repro.sweep.jobs import JobSpec
from repro.telemetry import (
    CloggingDetector,
    EventRing,
    LogHistogram,
    MetricsRegistry,
    bucket_bounds,
    bucket_index,
    load_summary,
    merge_events,
    read_trace,
)
from repro.telemetry.trace import JsonlTraceSink

import sys
sys.path.insert(0, "tests")
from conftest import small_config


def telemetry_main(argv):
    return main(["telemetry", *argv])


def _lcg_values(n, seed=7):
    """Deterministic skewed sample set (long tail like packet latencies)."""
    state = seed
    out = []
    for _ in range(n):
        state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        draw = state >> 33
        out.append(draw % 100 + (draw % 7 == 0) * (draw % 5000))
    return out


def _exact_percentile(values, p):
    values = sorted(values)
    rank = max(1, -(-int(p * len(values)) // 100))  # ceil(p/100 * n)
    return values[rank - 1]


class TestBuckets:
    def test_small_values_exact(self):
        for v in range(64):
            lo, hi = bucket_bounds(bucket_index(v))
            assert (lo, hi) == (v, v + 1)

    def test_bounds_contain_value(self):
        for v in [64, 65, 100, 1000, 12345, 1 << 20, (1 << 31) + 17]:
            lo, hi = bucket_bounds(bucket_index(v))
            assert lo <= v < hi

    def test_relative_width_bounded(self):
        for v in [64, 1000, 12345, 1 << 20]:
            lo, hi = bucket_bounds(bucket_index(v))
            assert (hi - lo) <= lo * 2 ** -5

    def test_indices_monotone(self):
        idxs = [bucket_index(v) for v in range(0, 1 << 14)]
        assert idxs == sorted(idxs)


class TestLogHistogram:
    def test_percentiles_within_resolution(self):
        values = _lcg_values(5000)
        hist = LogHistogram()
        for v in values:
            hist.record(v)
        for p in (50, 95, 99, 99.9):
            exact = _exact_percentile(values, p)
            approx = hist.percentile(p)
            assert abs(approx - exact) <= exact * 2 ** -5 + 1, p

    def test_count_total_min_max(self):
        values = _lcg_values(500)
        hist = LogHistogram()
        for v in values:
            hist.record(v)
        assert hist.count == len(values)
        assert hist.total == sum(values)
        assert hist.min == min(values) and hist.max == max(values)

    def test_merge_equals_joint_recording(self):
        a_vals, b_vals = _lcg_values(300, seed=1), _lcg_values(300, seed=2)
        a, b, joint = LogHistogram(), LogHistogram(), LogHistogram()
        for v in a_vals:
            a.record(v)
            joint.record(v)
        for v in b_vals:
            b.record(v)
            joint.record(v)
        a.merge(b)
        assert a.buckets == joint.buckets
        assert a.count == joint.count and a.total == joint.total

    def test_dict_round_trip(self):
        hist = LogHistogram()
        for v in _lcg_values(200):
            hist.record(v)
        clone = LogHistogram.from_dict(json.loads(json.dumps(hist.to_dict())))
        assert clone.buckets == hist.buckets
        assert clone.percentile(99) == hist.percentile(99)

    def test_from_sparse_drops_nonpositive(self):
        hist = LogHistogram.from_sparse({3: 5, 4: 0, 5: -2})
        assert hist.count == 5
        assert set(hist.buckets) == {3}

    def test_empty(self):
        hist = LogHistogram()
        assert hist.percentile(99) == 0.0
        assert hist.mean == 0.0
        assert hist.ascii() == "(empty histogram)"


def _ring_event(cycle, pid=1, code=0, value=-1):
    """A raw ring tuple shaped like the collector's hook appends."""
    return (code, MessageType.READ_REQ, TrafficClass.CPU, NetKind.REQUEST,
            1, 2, 9, cycle, pid, 0x80, value)


class TestTraceSinks:
    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlTraceSink(str(path))
        sink.event(_ring_event(5, pid=7))
        sink.event(_ring_event(6, pid=7, code=1, value=0))
        sink.event((3, MessageType.READ_REPLY, TrafficClass.GPU,
                    NetKind.REPLY, 9, 2, 1, 19, 8, 17, 10))
        sink.record({"rec": "meta", "schema": 1, "nodes": 4})
        sink.close()
        recs = list(read_trace(str(path)))
        assert recs[0]["ev"] == "inject" and recs[0]["pid"] == recs[1]["pid"]
        assert recs[0] == {
            "ev": "inject", "cycle": 5, "pid": 7, "src": 2, "dst": 9,
            "block": 0x80, "mtype": "READ_REQ", "cls": "CPU",
            "net": "request", "flits": 1,
        }
        assert recs[2]["value"] == 10
        assert recs[2]["net"] == "reply" and recs[2]["cls"] == "GPU"
        assert recs[3]["rec"] == "meta"


class TestSampling:
    """The trace keeps or drops a packet by a hash of its pid when the
    rings drain: read which packets traced runs actually wrote."""

    RATES = (1.0, 0.5, 0.25)

    @pytest.fixture(scope="class")
    def traces(self, tmp_path_factory):
        """Per rate, the ``ev`` records of one traced run as ``{pid:
        [(ev, cycle), ...]}`` and the summary's per-kind event counts.
        Each run numbers its packets from 0, so the runs name the same
        packet alike."""
        out = {}
        for rate in self.RATES:
            cfg = _traced_config(tmp_path_factory.mktemp("trace"),
                                 sample_rate=rate)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(packet, "_packet_ids", itertools.count())
                run_simulation(cfg, "SC", "bodytrack", cycles=400, warmup=200)
            events = defaultdict(list)
            for rec in read_trace(cfg.telemetry.trace_path):
                if "ev" in rec:
                    events[rec["pid"]].append((rec["ev"], rec["cycle"]))
                elif rec.get("rec") == "summary":
                    counts = rec["events"]
            out[rate] = (events, counts)
        return out

    def test_rate_subsets_nest(self, traces):
        everything, half, quarter = (set(traces[r][0]) for r in self.RATES)
        assert quarter < half < everything
        assert 0.15 < len(quarter) / len(everything) < 0.35
        assert 0.4 < len(half) / len(everything) < 0.6

    def test_a_kept_packet_keeps_its_whole_lifecycle(self, traces):
        full = traces[1.0][0]
        for rate in self.RATES[1:]:
            kept = traces[rate][0]
            assert kept and all(kept[pid] == full[pid] for pid in kept)

    def test_rate_one_samples_everything(self, traces):
        events, counts = traces[1.0]
        assert sum(map(len, events.values())) == sum(counts.values()) > 0


class TestCloggingDetector:
    def test_short_blips_ignored(self):
        det = CloggingDetector(threshold=0.9, min_windows=2)
        det.update(3, 0, 99, 0.95)
        det.update(3, 100, 199, 0.1)  # one hot window < min_windows
        assert det.flush() == [] and det.episodes == []

    def test_episode_shape(self):
        det = CloggingDetector(threshold=0.9, min_windows=2)
        det.update(3, 0, 99, 0.92)
        det.update(3, 100, 199, 1.0)
        episode = det.update(3, 200, 299, 0.2)
        assert episode is not None
        assert episode["node"] == 3
        assert episode["start"] == 0 and episode["end"] == 199
        assert episode["windows"] == 2
        assert episode["severity"] == 0.96 and episode["peak"] == 1.0

    def test_flush_closes_open_episode(self):
        det = CloggingDetector(threshold=0.5, min_windows=1)
        det.update(1, 0, 99, 0.8)
        det.update(2, 0, 99, 0.7)
        closed = det.flush()
        assert [e["node"] for e in closed] == [1, 2]
        assert det.flush() == []

    def test_independent_nodes(self):
        det = CloggingDetector(threshold=0.9, min_windows=1)
        det.update(1, 0, 99, 0.95)
        assert det.update(2, 0, 99, 0.1) is None
        assert len(det.flush()) == 1

    def test_signal_exactly_at_threshold_is_hot(self):
        det = CloggingDetector(threshold=0.9, min_windows=1)
        det.update(1, 0, 99, 0.9)
        assert len(det.flush()) == 1

    def test_streak_one_short_of_min_windows_is_no_episode(self):
        det = CloggingDetector(threshold=0.5, min_windows=3)
        det.update(1, 0, 99, 0.9)
        det.update(1, 100, 199, 0.9)
        assert det.update(1, 200, 299, 0.1) is None
        assert det.flush() == [] and det.episodes == []

    def test_on_open_fires_once_when_streak_reaches_min_windows(self):
        det = CloggingDetector(threshold=0.5, min_windows=2)
        opened = []
        det.on_open = lambda node, cycle: opened.append((node, cycle))
        det.update(3, 0, 99, 0.8)
        assert opened == []
        det.update(3, 100, 199, 0.9)
        assert opened == [(3, 199)]
        det.update(3, 200, 299, 0.9)  # same episode: no second open
        assert opened == [(3, 199)]

    def test_on_open_fires_immediately_for_min_windows_one(self):
        det = CloggingDetector(threshold=0.5, min_windows=1)
        opened = []
        det.on_open = lambda node, cycle: opened.append((node, cycle))
        det.update(7, 0, 99, 0.6)
        assert opened == [(7, 99)]

    def test_short_blip_never_opens(self):
        det = CloggingDetector(threshold=0.5, min_windows=3)
        opened = []
        det.on_open = lambda node, cycle: opened.append((node, cycle))
        det.update(1, 0, 99, 0.9)
        det.update(1, 100, 199, 0.9)
        det.update(1, 200, 299, 0.1)
        assert opened == []


class TestEventRing:
    def test_bounded_retention(self):
        ring = EventRing(4)
        for i in range(7):
            ring.events.append(_ring_event(i))
        assert len(ring) == 4
        assert [e[7] for e in ring.snapshot()] == [3, 4, 5, 6]

    def test_take_pending_marks_drained(self):
        ring = EventRing(8)
        for i in range(3):
            ring.events.append(_ring_event(i))
            ring.head += 1
        assert [e[7] for e in ring.take_pending()] == [0, 1, 2]
        assert ring.take_pending() == []
        ring.events.append(_ring_event(9))
        ring.head += 1
        assert [e[7] for e in ring.take_pending()] == [9]

    def test_take_pending_keeps_flight_retention(self):
        ring = EventRing(8)
        for i in range(3):
            ring.events.append(_ring_event(i))
            ring.head += 1
        ring.take_pending()
        # drained events stay in the deque: the flight recorder still
        # sees them until capacity evicts them
        assert [e[7] for e in ring.snapshot()] == [0, 1, 2]

    def test_merge_is_cycle_ordered_and_stable(self):
        req = [_ring_event(1, pid=1), _ring_event(5, pid=2)]
        rep = [_ring_event(1, pid=3), _ring_event(4, pid=4)]
        merged = merge_events(req, rep)
        assert [e[7] for e in merged] == [1, 1, 4, 5]
        # ties keep batch order: request-net before reply-net
        assert [e[8] for e in merged] == [1, 3, 4, 2]


class TestMetricsRegistry:
    def test_counter_and_gauge(self):
        m = MetricsRegistry()
        m.counter("flight.dumps").inc()
        m.counter("flight.dumps").inc(2)
        m.gauge("ring_retained").set(17)
        assert m.snapshot() == {"flight.dumps": 3, "ring_retained": 17}

    def test_get_or_create_is_idempotent(self):
        m = MetricsRegistry()
        assert m.counter("x") is m.counter("x")
        assert len(m) == 1 and "x" in m

    def test_kind_mismatch_raises(self):
        m = MetricsRegistry()
        m.counter("x")
        with pytest.raises(TypeError):
            m.gauge("x")

    def test_snapshot_is_sorted(self):
        m = MetricsRegistry()
        m.gauge("zeta").set(1)
        m.counter("alpha").inc()
        assert list(m.snapshot()) == ["alpha", "zeta"]


def _traced_config(tmp_path, **tel):
    cfg = small_config()
    cfg.telemetry.enabled = True
    cfg.telemetry.trace_path = str(tmp_path / "trace.jsonl")
    cfg.telemetry.probe_interval = tel.pop("probe_interval", 100)
    for k, v in tel.items():
        setattr(cfg.telemetry, k, v)
    return cfg


class TestIntegration:
    def test_disabled_is_bit_identical(self):
        base = run_simulation(small_config(), "SC", "bodytrack",
                              cycles=400, warmup=200)
        cfg = small_config()
        cfg.telemetry.enabled = True  # histograms/probes, no trace file
        traced = run_simulation(cfg, "SC", "bodytrack",
                                cycles=400, warmup=200)
        assert traced.counters == base.counters
        assert traced.cpu_latency_avg == base.cpu_latency_avg

    def test_trace_file_contents(self, tmp_path):
        cfg = _traced_config(tmp_path)
        run_simulation(cfg, "SC", "bodytrack", cycles=400, warmup=200)
        recs = list(read_trace(cfg.telemetry.trace_path))
        kinds = {}
        for rec in recs:
            k = rec.get("rec", rec.get("ev"))
            kinds[k] = kinds.get(k, 0) + 1
        assert recs[0]["rec"] == "meta" and recs[0]["schema"] == 3
        assert kinds.get("win", 0) >= 5
        assert kinds.get("deliver", 0) > 0
        assert kinds.get("hist", 0) >= 2  # at least CPU+GPU reply classes
        assert kinds.get("summary") == 1
        # delivery counts in the summary match the per-event stream
        summary = [r for r in recs if r.get("rec") == "summary"][0]
        assert summary["events"]["deliver"] == kinds["deliver"]

    def test_percentiles_match_exact_samples(self):
        # HS keeps the mesh below saturation and dedup is the most
        # memory-intensive co-runner, so the CPU reply population is
        # large enough to pin percentiles
        system = build_system(small_config(), "HS", "dedup")
        exact = []
        for core in system.cpu_cores:
            def handler(pkt, cycle, core=core):
                issued = core._issue_cycle.get(pkt.block)
                if issued is not None:
                    exact.append(cycle - issued)
                core.on_packet(pkt, cycle)
            core.nic.handler = handler
        system.run(4000)
        res = derive_result(system, collect_counters(system))
        assert len(exact) >= 40
        for p, approx in ((50, res.cpu_latency_p50),
                          (95, res.cpu_latency_p95),
                          (99, res.cpu_latency_p99)):
            want = _exact_percentile(exact, p)
            assert abs(approx - want) <= want * 2 ** -5 + 1, p

    def test_collector_histogram_matches_counters(self, tmp_path):
        cfg = _traced_config(tmp_path)
        system = build_system(cfg, "SC", "bodytrack")
        system.run(600)
        counters = collect_counters(system)
        # reply-net CPU deliveries == CPU core replies (each CPU reply is
        # one reply-net delivery to a CPU NIC)
        cpu_hist = system.telemetry.latency_histogram(1, 0)
        assert cpu_hist.count == counters["cpu.replies"]

    def test_detector_fires_on_hot_workload(self, tmp_path):
        # SC saturates the memory nodes of the small mesh: the canonical
        # clogging scenario must produce at least one episode
        cfg = _traced_config(tmp_path, clog_threshold=0.8, clog_min_windows=2)
        run_simulation(cfg, "SC", "bodytrack", cycles=1200, warmup=400)
        recs = list(read_trace(cfg.telemetry.trace_path))
        assert any(r.get("rec") == "clog" for r in recs)

    def test_result_carries_metrics_snapshot(self):
        cfg = small_config()
        cfg.telemetry.enabled = True
        res = run_simulation(cfg, "SC", "bodytrack", cycles=400, warmup=200)
        assert res.telemetry_metrics["events.deliver"] > 0
        assert "windows" in res.telemetry_metrics
        base = run_simulation(small_config(), "SC", "bodytrack",
                              cycles=400, warmup=200)
        assert base.telemetry_metrics == {}
        # metrics ride along but never leak into the bit-identity surface
        assert res.counters == base.counters

    def test_sweep_manifest_carries_telemetry_metrics(self):
        from repro.sweep.runner import JobOutcome

        cfg = small_config()
        cfg.telemetry.enabled = True
        spec = JobSpec.make(cfg, "SC", "bodytrack", cycles=400, warmup=200)
        res = run_simulation(cfg, "SC", "bodytrack", cycles=400, warmup=200)
        d = JobOutcome(spec=spec, key=spec.key(), status="ok",
                       result=res).as_dict()
        assert d["metrics"]["telemetry"]["events.deliver"] > 0


class TestFlightRecorder:
    def test_dump_on_clog_open(self, tmp_path):
        flights = tmp_path / "flights"
        cfg = _traced_config(tmp_path, clog_threshold=0.8,
                             clog_min_windows=2, flight_dir=str(flights))
        run_simulation(cfg, "SC", "bodytrack", cycles=1200, warmup=400)
        dumps = sorted(flights.glob("flight-*-clog*.jsonl"))
        assert dumps, "clog episode opened but no flight dump written"
        recs = list(read_trace(str(dumps[0])))
        meta, events = recs[0], recs[1:]
        assert meta["dump"] == "clog" and "dump_nodes" in meta
        assert meta["events_retained"] == len(events) > 0
        cycles = [r["cycle"] for r in events]
        assert cycles == sorted(cycles)
        assert cycles[-1] <= meta["dump_cycle"]
        # the main trace names every dump file it wrote
        flight_recs = [r for r in read_trace(cfg.telemetry.trace_path)
                       if r.get("rec") == "flight"]
        assert {r["path"] for r in flight_recs} >= {str(p) for p in dumps}

    def test_fault_dump_on_first_occurrence_only(self, tmp_path):
        cfg = _traced_config(tmp_path, flight_dir=str(tmp_path / "fl"))
        system = build_system(cfg, "SC", "bodytrack")
        system.run(100)
        tel = system.telemetry
        tel.on_fault_event({"rec": "fault", "fault": "flit_drop",
                            "cycle": 60})
        tel.on_fault_event({"rec": "fault", "fault": "flit_drop",
                            "cycle": 70})
        assert tel.events["flit_drop"] == 2
        fault_dumps = [p for p in tel.flight_dumps if "fault-flit_drop" in p]
        assert len(fault_dumps) == 1
        recs = list(read_trace(fault_dumps[0]))
        assert recs[0]["dump"] == "fault-flit_drop"
        assert recs[0]["dump_cycle"] == 60
        assert len(recs) > 1  # lead-up events decode

    def test_dump_count_is_capped(self, tmp_path):
        cfg = _traced_config(tmp_path, flight_dir=str(tmp_path / "fl"),
                             clog_threshold=2.0)  # never clog-dump
        system = build_system(cfg, "SC", "bodytrack")
        system.run(50)
        tel = system.telemetry
        for i in range(12):
            tel.on_fault_event({"rec": "fault", "fault": f"f{i}",
                                "cycle": 50 + i})
        assert len(tel.flight_dumps) == 8

    def test_one_dump_per_probe_leaves_cap_for_a_fault(self, tmp_path):
        # the paper's 8x8 chip under SC: several memory nodes turn hot at
        # the same probe.  They share one dump (same rings, same cycle),
        # so the per-run cap counts distinct event sets and a later fault
        # still gets its lead-up recorded.
        cfg = SystemConfig()
        cfg.telemetry.enabled = True
        cfg.telemetry.probe_interval = 50
        cfg.telemetry.clog_min_windows = 1
        cfg.telemetry.flight_dir = str(tmp_path / "fl")
        system = build_system(cfg, "SC", "bodytrack")
        system.run(250)
        tel = system.telemetry
        opened = {}
        for path in tel.flight_dumps:
            meta = next(read_trace(path))
            assert meta["dump_nodes"] == sorted(meta["dump_nodes"])
            opened[meta["dump_cycle"]] = meta["dump_nodes"]
        # one file per probe cycle, and more nodes opened than the cap
        assert len(opened) == len(tel.flight_dumps) < 8
        assert sum(len(nodes) for nodes in opened.values()) >= 8
        assert max(len(nodes) for nodes in opened.values()) > 1
        tel.on_fault_event({"rec": "fault", "fault": "flit_drop",
                            "cycle": 250})
        assert any("fault-flit_drop" in p for p in tel.flight_dumps)

    def test_dump_lines_are_trace_lines(self, tmp_path):
        # a dump is written by the trace's writer: at sample_rate 1 every
        # event line of every dump is, byte for byte, a line of the trace
        cfg = _traced_config(tmp_path, clog_threshold=0.8,
                             clog_min_windows=1, sample_rate=1.0,
                             flight_dir=str(tmp_path / "fl"))
        system = build_system(cfg, "SC", "bodytrack")
        system.run(300)
        system.telemetry.on_fault_event(
            {"rec": "fault", "fault": "flit_drop", "cycle": 299})
        system.telemetry.finalize(system.cycle)
        with open(cfg.telemetry.trace_path) as fh:
            trace_lines = set(fh)
        flight_recs = [r for r in read_trace(cfg.telemetry.trace_path)
                       if r.get("rec") == "flight"]
        dumps = system.telemetry.flight_dumps
        assert len(dumps) >= 2
        assert [r["path"] for r in flight_recs] == dumps
        for path, flight in zip(dumps, flight_recs):
            with open(path) as fh:
                meta, *events = fh.readlines()
            meta = json.loads(meta)
            assert meta["rec"] == "meta" and meta["dump"] == flight["trigger"]
            assert meta["dump_cycle"] == flight["cycle"]
            assert meta.get("dump_nodes", []) == flight["nodes"]
            assert meta["events_retained"] == len(events) > 0
            assert set(events) <= trace_lines

    def test_no_dir_retains_but_never_writes(self, tmp_path):
        cfg = _traced_config(tmp_path, clog_threshold=0.8,
                             clog_min_windows=2)  # flight_dir unset
        res = run_simulation(cfg, "SC", "bodytrack", cycles=1200, warmup=400)
        assert res.telemetry_metrics.get("flight.dumps", 0) == 0
        assert res.telemetry_metrics["ring_retained"] > 0


class TestReaderVersions:
    def test_jsonl_future_schema_is_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "future.jsonl"
        path.write_text(json.dumps({"rec": "meta", "schema": 99}) + "\n")
        with pytest.raises(ValueError, match="newer than this reader"):
            list(read_trace(str(path)))
        assert telemetry_main(["report", str(path)]) == 2
        err = capsys.readouterr().err
        assert "v99" in err or "99" in err
        assert len(err.strip().splitlines()) == 1

    def test_current_formats_all_read(self, tmp_path):
        # a trace and a flight dump are one format: one read_trace
        cfg = _traced_config(tmp_path, flight_dir=str(tmp_path / "fl"))
        system = build_system(cfg, "SC", "bodytrack")
        system.run(100)
        system.telemetry.on_fault_event(
            {"rec": "fault", "fault": "flit_drop", "cycle": 99})
        system.telemetry.finalize(system.cycle)
        assert list(read_trace(cfg.telemetry.trace_path))[0]["rec"] == "meta"
        (dump,) = system.telemetry.flight_dumps
        recs = list(read_trace(dump))
        assert recs[0]["rec"] == "meta" and recs[0]["schema"] == 3
        assert len(recs) > 1 and all("ev" in r for r in recs[1:])

    def test_v2_trace_still_reads(self, tmp_path):
        path = tmp_path / "v2.jsonl"
        sink = JsonlTraceSink(str(path))
        sink.record({"rec": "meta", "schema": 2, "nodes": 4})
        sink.event(_ring_event(5))
        sink.close()
        assert [r.get("cycle") for r in read_trace(str(path))] == [None, 5]


class TestCli:
    def _make_trace(self, tmp_path):
        cfg = _traced_config(tmp_path)
        run_simulation(cfg, "SC", "bodytrack", cycles=600, warmup=200)
        return cfg.telemetry.trace_path

    def test_report(self, tmp_path, capsys):
        path = self._make_trace(tmp_path)
        assert telemetry_main(["report", path]) == 0
        out = capsys.readouterr().out
        assert "latency percentiles" in out
        assert "p99" in out and "reply" in out

    def test_hist_filters(self, tmp_path, capsys):
        path = self._make_trace(tmp_path)
        assert telemetry_main(["hist", path, "--net", "reply",
                               "--cls", "GPU"]) == 0
        out = capsys.readouterr().out
        assert "reply/GPU" in out and "request" not in out

    def test_timeline(self, tmp_path, capsys):
        path = self._make_trace(tmp_path)
        assert telemetry_main(["timeline", path]) == 0
        out = capsys.readouterr().out
        assert "cycle" in out and "util" in out
        assert len(out.splitlines()) >= 5

    def test_events(self, tmp_path, capsys):
        path = self._make_trace(tmp_path)
        assert telemetry_main(["events", path]) == 0
        out = capsys.readouterr().out
        assert "episode" in out

    def test_blame(self, tmp_path, capsys):
        cfg = _traced_config(tmp_path, mode="full", clog_threshold=0.8,
                             clog_min_windows=2)
        run_simulation(cfg, "SC", "bodytrack", cycles=1200, warmup=400)
        assert telemetry_main(["blame", cfg.telemetry.trace_path]) == 0
        out = capsys.readouterr().out
        assert "per-router stall cycles" in out
        assert "memory-node reply-buffer pressure" in out
        assert "mesh stall heatmap" in out
        assert "episode root causes" in out

    def test_blame_reports_disabled_attribution(self, tmp_path, capsys):
        cfg = _traced_config(tmp_path, mode="light")
        run_simulation(cfg, "SC", "bodytrack", cycles=400, warmup=200)
        assert telemetry_main(["blame", cfg.telemetry.trace_path]) == 0
        out = capsys.readouterr().out
        assert "stall attribution was disabled" in out

    def test_missing_trace_is_one_line_error(self, tmp_path, capsys):
        path = str(tmp_path / "does-not-exist.jsonl")
        assert telemetry_main(["report", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read trace")
        assert len(err.strip().splitlines()) == 1

    def test_empty_trace_is_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert telemetry_main(["blame", str(path)]) == 2
        err = capsys.readouterr().err
        assert "is empty (no records)" in err
        assert len(err.strip().splitlines()) == 1

    def test_garbage_trace_is_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "garbage.bin"
        path.write_bytes(b"\x00\x01not a trace file at all")
        assert telemetry_main(["report", str(path)]) == 2
        err = capsys.readouterr().err
        assert "is not a readable trace" in err
        assert len(err.strip().splitlines()) == 1

    def test_torn_last_line_is_a_truncated_trace(self, tmp_path, capsys):
        # a traced run killed mid-write: the first half of a real trace,
        # cut inside a line, still reports what it holds
        whole = open(self._make_trace(tmp_path)).read()
        cut = whole.index("\n", len(whole) // 2) + 40
        assert whole[cut - 1] != "\n" and whole[cut] != "\n"
        torn = tmp_path / "torn.jsonl"
        torn.write_text(whole[:cut])
        recs = list(read_trace(str(torn)))
        assert len(recs) == whole[:cut].count("\n")
        summary = load_summary(str(torn))
        assert summary.truncated
        assert summary.events["deliver"] > 0 and summary.windows
        assert not load_summary(self._make_trace(tmp_path)).truncated
        assert telemetry_main(["report", str(torn)]) == 0
        out = capsys.readouterr().out
        assert "truncated trace" in out and "latency percentiles" in out
        assert f"windows: {len(summary.windows)}" in out
        # the same bad line with a good one after it is not a torn tail
        bad = tmp_path / "bad.jsonl"
        bad.write_text(whole[:cut] + "\n" + whole.splitlines()[1] + "\n")
        assert telemetry_main(["report", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "is not a readable trace" in err
        assert len(err.strip().splitlines()) == 1

    def test_readers_emit_json(self, tmp_path, capsys):
        """Every reader honours the shared --format json switch."""
        import json

        path = self._make_trace(tmp_path)
        for cmd in ("report", "hist", "timeline", "events", "blame"):
            assert telemetry_main([cmd, path, "--format", "json"]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["path"] == path

    def test_report_json_matches_table_numbers(self, tmp_path, capsys):
        import json

        path = self._make_trace(tmp_path)
        telemetry_main(["report", path, "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["records"] > 0
        assert payload["events"].get("deliver", 0) > 0
        rows = {(r["net"], r["cls"]): r for r in payload["latency"]}
        assert ("reply", "GPU") in rows
        assert rows[("reply", "GPU")]["p99"] >= rows[("reply", "GPU")]["p50"]

    def test_blame_json_totals_match_table(self, tmp_path, capsys):
        import json

        cfg = _traced_config(tmp_path, mode="full", clog_threshold=0.8,
                             clog_min_windows=2)
        run_simulation(cfg, "SC", "bodytrack", cycles=1200, warmup=400)
        path = cfg.telemetry.trace_path
        assert telemetry_main(["blame", path, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["routers"]
        top = payload["routers"][0]
        assert top["total"] == sum(top["classes"].values())
        telemetry_main(["blame", path])
        table = capsys.readouterr().out
        assert str(top["total"]) in table

    def test_hist_json_matches_table_rows(self, tmp_path, capsys):
        path = self._make_trace(tmp_path)
        argv = ["hist", path, "--net", "reply"]
        telemetry_main(argv + ["--format", "json"])
        rows = json.loads(capsys.readouterr().out)["histograms"]
        assert [(r["net"], r["cls"]) for r in rows] == [
            ("reply", "CPU"), ("reply", "GPU")]
        telemetry_main(argv)
        heads = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("reply/")]
        assert heads == [
            f"{r['net']}/{r['cls']}: n={r['summary']['count']} "
            f"mean={r['summary']['mean']} p50={r['summary']['p50']:.0f} "
            f"p99={r['summary']['p99']:.0f}" for r in rows
        ]

    def test_events_json_matches_table_rows(self, tmp_path, capsys):
        cfg = _traced_config(tmp_path, clog_threshold=0.8, clog_min_windows=1)
        run_simulation(cfg, "SC", "bodytrack", cycles=600, warmup=200)
        path = cfg.telemetry.trace_path
        telemetry_main(["events", path, "--format", "json"])
        episodes = json.loads(capsys.readouterr().out)["episodes"]
        assert len(episodes) >= 2
        telemetry_main(["events", path])
        table = capsys.readouterr().out.splitlines()
        assert table[0] == f"{len(episodes)} clogging episode(s)"
        assert [tuple(line.split()[:4]) for line in table[2:]] == [
            (str(e["node"]), str(e["start"]), str(e["end"]),
             str(e["windows"])) for e in episodes
        ]

    def test_load_summary_uses_full_histograms(self, tmp_path):
        # sampled traces still report exact percentiles: the final "hist"
        # records carry the full population, overriding sampled deliveries
        cfg = _traced_config(tmp_path, sample_rate=0.2)
        run_simulation(cfg, "SC", "bodytrack", cycles=600, warmup=200)
        summary = load_summary(cfg.telemetry.trace_path)
        full = [r for r in read_trace(cfg.telemetry.trace_path)
                if r.get("rec") == "hist" and r["net"] == "reply"
                and r["cls"] == "GPU"]
        assert summary.hists[("reply", "GPU")].count == full[0]["count"]


class TestConfigPlumbing:
    def test_loader_round_trip(self):
        cfg = SystemConfig()
        cfg.telemetry.enabled = True
        cfg.telemetry.sample_rate = 0.5
        clone = config_from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert clone.telemetry == cfg.telemetry

    def test_sweep_key_ignores_telemetry(self):
        def key(**telemetry):
            cfg = small_config()
            for name, value in telemetry.items():
                setattr(cfg.telemetry, name, value)
            return JobSpec.make(cfg, "SC", "bodytrack").key()

        # telemetry off: no telemetry field reaches the key
        assert key() == key(mode="full", trace_path="/tmp/x.jsonl",
                            sample_rate=0.5, probe_interval=50,
                            ring_events=64, flight_dir="/tmp/flight")
        # telemetry on: the output paths still do not ...
        traced = key(enabled=True, mode="full")
        assert traced == key(enabled=True, mode="full",
                             trace_path="/tmp/x.jsonl",
                             flight_dir="/tmp/flight")
        # ... but what shapes the result payload does, and a traced run
        # never shares an entry with its untraced twin
        assert traced != key(enabled=True, mode="light")
        assert traced != key()

    def test_sweep_key_still_sees_real_config(self):
        a = JobSpec.make(small_config(), "SC", "bodytrack")
        b = JobSpec.make(small_config(seed=99), "SC", "bodytrack")
        assert a.key() != b.key()
