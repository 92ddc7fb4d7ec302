"""Smoke test of the benchmark itself: ``python -m pytest e2e_bench -q``.

Not part of tier-1 (``testpaths`` is ``tests``): it runs every workload
at a tenth of its size in subprocesses, ~20 s.
"""

import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent


def test_smoke_prints_every_metric_once_with_its_unit(tmp_path):
    with open(HERE.parent / "BENCHMARK.json") as fh:
        contract = json.load(fh)
    out = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]

    # every "workload metric value unit" line, counted
    seen = Counter()
    for line in proc.stdout.splitlines():
        parts = line.split()
        if len(parts) == 4:
            float(parts[2])
            seen[(parts[0], parts[1], parts[3])] += 1
    for w in contract["workloads"]:
        for m in contract["end_to_end"] + contract["per_layer"]:
            assert seen[(w["name"], m["name"], m["unit"])] == 1, (w["name"], m)

    report = json.loads(out.read_text())
    for key in ("git_commit", "seed", "nproc", "cpu_model", "python", "numpy",
                "host.calib_s_p50"):
        assert key in report["provenance"]
    for w in contract["workloads"]:
        entry = report["workloads"][w["name"]]
        assert entry["end_to_end_ops"]["failed"] == 0, entry["end_to_end_ops"]
        assert entry["per_layer_ops"]["failed"] == 0, entry["per_layer_ops"]
        # a timing or a size that reads zero means nothing was measured
        for m in contract["end_to_end"]:
            assert entry["end_to_end"][m["name"]]["value"] > 0
        assert len(entry["stats_digest"]) == 64
