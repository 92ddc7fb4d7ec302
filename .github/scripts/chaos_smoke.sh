#!/usr/bin/env bash
# CI check: the fault-injection layer recovers everything it breaks.
# A chaos run on the paper's 8x8 mesh (delegated replies, the mechanism
# with the most reply-path moving parts) injects packet loss on every
# memory reply link plus a mid-run interior link outage; the
# harness must report nonzero retransmits and ZERO lost transactions,
# and the post-run quiesce must drain the network completely (the CLI
# exits 1 otherwise).  The caller wraps this script in `timeout 60`.
set -euo pipefail

OUT=/tmp/chaos-smoke.txt

# plan round-trip: emit a chaos plan, replay it from the file
python -m repro faults plan --intensity 0.1 --seed 1 \
  --cycles 1200 --warmup 400 --out /tmp/chaos-plan.json
python -m repro faults run --gpu SC --mechanism dr \
  --cycles 1200 --warmup 400 --plan /tmp/chaos-plan.json \
  | tee "$OUT"

# the plan's LinkDown + FlitDrop events actually landed
grep -Eq "links_downed: [1-9]" "$OUT"
grep -Eq "drops: [1-9]" "$OUT"
# recovery did real work and lost nothing
grep -Eq "retransmits: [1-9]" "$OUT"
grep -Eq "lost: 0$" "$OUT"
grep -q "OK: every injected fault recovered" "$OUT"

# determinism: the same plan twice gives identical fault counters
python -m repro faults run --gpu SC --mechanism dr \
  --cycles 1200 --warmup 400 --plan /tmp/chaos-plan.json > /tmp/chaos-2.txt
diff "$OUT" /tmp/chaos-2.txt
echo "chaos smoke OK"
