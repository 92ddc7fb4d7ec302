"""Opt-in observability: packet traces, latency histograms, clog events.

The paper's argument is about tails and episodes — reply packets clogging
VCs, CPU requests stalling behind them — which window-averaged counters
cannot show.  This package adds the missing instruments:

* :class:`~repro.telemetry.hist.LogHistogram` — streaming HDR-style
  latency histograms (p50/p95/p99/p99.9 without raw samples); always on
  in the CPU/GPU cores and surfaced through ``SimulationResult``.
* :class:`~repro.telemetry.collector.TelemetryCollector` — per-packet
  lifecycle events through an :class:`~repro.telemetry.ring.EventRing`
  pipeline (written to the trace file by one
  :class:`~repro.telemetry.trace.JsonlTraceSink` in deferred batches,
  with deterministic sampling), windowed link/buffer/injection probes, a
  clogging-event detector, an always-on flight recorder that writes the
  retained ring out as a small trace of its own when an episode opens or
  a fault fires, and a
  :class:`~repro.telemetry.metrics.MetricsRegistry` of cheap named
  counters/gauges.  Enabled via ``SystemConfig.telemetry``; two tiers
  (``mode="light"`` / ``"full"``); bit-identical and near-zero-cost when
  disabled.
* :class:`~repro.telemetry.blame.StallTable` and the blame chain walker —
  per-(router, port, class) stall attribution for every cycle a head worm
  fails to advance, plus hop-by-hop backpressure chains that attach
  ``root_cause`` records to clogging episodes.
* ``python -m repro telemetry {trace,report,hist,timeline,events,blame}``
  — run a traced simulation and render reports from trace files.
"""

from repro.telemetry.blame import (
    BlameAccumulator,
    STALL_CLASSES,
    StallTable,
    classify_head,
    survey_stalls,
    walk_chain,
)
from repro.telemetry.collector import CloggingDetector, TelemetryCollector
from repro.telemetry.hist import (
    DEFAULT_SUB_BITS,
    LogHistogram,
    bucket_bounds,
    bucket_index,
)
from repro.telemetry.metrics import Counter, Gauge, MetricsRegistry
from repro.telemetry.ring import EventRing, merge_events
from repro.telemetry.report import (
    TraceSummary,
    load_summary,
    render_blame,
    render_events,
    render_hist,
    render_report,
    render_timeline,
)
from repro.telemetry.trace import JsonlTraceSink, PACKET_EVENTS, read_trace

__all__ = [
    "BlameAccumulator",
    "CloggingDetector",
    "Counter",
    "DEFAULT_SUB_BITS",
    "EventRing",
    "Gauge",
    "JsonlTraceSink",
    "LogHistogram",
    "MetricsRegistry",
    "PACKET_EVENTS",
    "STALL_CLASSES",
    "StallTable",
    "TelemetryCollector",
    "TraceSummary",
    "bucket_bounds",
    "bucket_index",
    "classify_head",
    "load_summary",
    "merge_events",
    "read_trace",
    "render_blame",
    "render_events",
    "render_hist",
    "render_report",
    "render_timeline",
    "survey_stalls",
    "walk_chain",
]
