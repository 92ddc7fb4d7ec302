"""Smoke test for the kernel benchmark CLI (CI budget: well under 60 s).

Runs ``python -m repro.bench --quick`` on a subset of configs and checks
the CLI exit code, the ``BENCH_noc.json`` schema and that every config
made forward progress.  This is a *smoke* test — it asserts the bench
runs, not how fast; absolute numbers live in the committed BENCH_noc.json.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_bench_cli_quick(tmp_path):
    out = tmp_path / "BENCH_noc.json"
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.bench",
            "--quick",
            "--configs",
            "mesh8x8",
            "mesh8x8_dr",
            "shared_vnet",
            "--out",
            str(out),
        ],
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=55,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(out.read_text())
    assert payload["bench"] == "noc-kernel"
    configs = payload["configs"]
    assert set(configs) == {"mesh8x8", "mesh8x8_dr", "shared_vnet"}
    for name, entry in configs.items():
        assert entry["cycles"] > 0, name
        assert entry["cycles_per_sec"] > 0, name
        assert entry["packets_delivered"] > 0, name
        assert entry["flits_delivered"] >= entry["packets_delivered"], name


def test_bench_python_api_backends_agree():
    """run_bench drives the same seeded traffic on either backend, and
    the two kernels deliver the same packets and flits."""
    from repro.bench import run_bench

    obj = run_bench("mesh8x8", cycles=600, backend="object")
    vec = run_bench("mesh8x8", cycles=600, backend="vector")
    assert obj.cycles == vec.cycles == 600
    assert obj.packets_delivered == vec.packets_delivered > 0
    assert obj.flits_delivered == vec.flits_delivered
