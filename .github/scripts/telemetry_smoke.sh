#!/usr/bin/env bash
# CI check: a traced simulation produces a trace the telemetry CLI can
# report on, including per-class latency percentiles and at least one
# detected clogging episode on the paper's high-GPU-load scenario
# (SC on the 8x8 mesh saturates the memory nodes' reply paths), and the
# flight dump written when that episode opens is itself a trace the CLI
# reports on.
# The caller wraps this script in `timeout 60`.
set -euo pipefail

TRACE=/tmp/telemetry-smoke.jsonl
FLIGHT=/tmp/telemetry-smoke-flight
rm -rf "$TRACE" "$FLIGHT"

python -m repro telemetry trace --out "$TRACE" \
  --gpu SC --mechanism baseline --cycles 1500 --warmup 500 \
  --set telemetry.probe_interval=100 \
  --set telemetry.flight_dir="$FLIGHT"

echo "--- report ---"
python -m repro telemetry report "$TRACE" | tee /tmp/telemetry-report.txt
echo "--- events ---"
python -m repro telemetry events "$TRACE" | tee /tmp/telemetry-events.txt
echo "--- blame ---"
python -m repro telemetry blame "$TRACE" | tee /tmp/telemetry-blame.txt

# per-class latency percentiles are present for both networks
grep -q "latency percentiles" /tmp/telemetry-report.txt
grep -q "reply *GPU" /tmp/telemetry-report.txt
grep -q "request *CPU" /tmp/telemetry-report.txt
# the clogging detector fired on the canonical clogging workload
grep -q "clogging episode(s)" /tmp/telemetry-events.txt
# stall attribution produced the blame matrix and the heatmap
grep -q "per-router stall cycles" /tmp/telemetry-blame.txt
grep -q "mesh stall heatmap" /tmp/telemetry-blame.txt
# at least one episode's blame chain walk named a memory node's full
# reply injection buffer as the root cause (the paper's Fig. 3 loop)
awk '/episode root causes/,0' /tmp/telemetry-blame.txt | grep -q "reply_buffer"
# the first flight dump reads like any trace
DUMP=$(ls "$FLIGHT"/flight-*.jsonl | head -n 1)
echo "--- report: $DUMP ---"
python -m repro telemetry report "$DUMP" | grep "latency percentiles"
echo "telemetry smoke OK"
