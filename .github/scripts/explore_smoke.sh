#!/usr/bin/env bash
# CI check: the explore subsystem finds a better frontier than chance.
# A tiny surrogate-only NSGA-II search over the mesh4x4 demo space must
# (a) produce a non-empty Pareto frontier, (b) reproduce itself exactly
# under the same --seed, and (c) beat uniform random sampling at the
# same evaluation budget when both frontiers are scored by hypervolume
# at a shared (union-of-evaluations) reference point.  Surrogate-only
# keeps the whole thing analytical; the caller wraps this script in
# `timeout 90`.  The budget/population/seed triple is pinned: the search
# is a pure function of it, so this gate is deterministic.
set -euo pipefail

SPACE=mesh4x4
BUDGET=32
POP=12
SEED=0

python -m repro explore run --space "$SPACE" --surrogate-only \
  --algo nsga2 --budget "$BUDGET" --population "$POP" --seed "$SEED" \
  --out /tmp/explore-nsga2.json --format json > /dev/null
python -m repro explore run --space "$SPACE" --surrogate-only \
  --algo random --budget "$BUDGET" --population "$POP" --seed "$SEED" \
  --out /tmp/explore-random.json --format json > /dev/null

# same seed, same manifest (modulo wall time): the search is reproducible
python -m repro explore run --space "$SPACE" --surrogate-only \
  --algo nsga2 --budget "$BUDGET" --population "$POP" --seed "$SEED" \
  --out /tmp/explore-nsga2-again.json --format json > /dev/null
python - <<'EOF'
import json

def load(path):
    with open(path) as fh:
        data = json.load(fh)
    data.pop("wall_time_s")
    return data

a = load("/tmp/explore-nsga2.json")
b = load("/tmp/explore-nsga2-again.json")
assert a == b, "same seed must reproduce the identical manifest"

n = len(a["frontier"]["points"])
assert n > 0, "nsga2 frontier is empty"
print(f"frontier: {n} points, {a['counts']['evaluated']} evaluated")
EOF

# nsga2 must beat random at equal budget under a shared reference
python -m repro explore frontier /tmp/explore-nsga2.json \
  --compare /tmp/explore-random.json --format json > /tmp/explore-cmp.json
python - <<'EOF'
import json

with open("/tmp/explore-cmp.json") as fh:
    cmp = json.load(fh)["compare"]
hv, other = cmp["hypervolume"], cmp["other_hypervolume"]
print(f"hypervolume: nsga2 {hv:.6g} vs random {other:.6g}")
assert cmp["winner"] == "/tmp/explore-nsga2.json", (
    f"nsga2 ({hv}) did not beat random ({other}) at equal budget"
)
EOF
echo "explore smoke OK"
