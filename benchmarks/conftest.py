"""Shared helpers for the per-figure benchmark harness.

Each ``test_figNN_*`` target regenerates one paper figure/table via
``pytest benchmarks/ --benchmark-only``.  The rendered tables are written
to ``benchmarks/results/`` (they are the data behind EXPERIMENTS.md) and
basic shape assertions check the paper's qualitative conclusions — who
wins, in which direction — rather than absolute numbers.

Environment knobs:

* ``REPRO_CYCLES`` / ``REPRO_WARMUP``: measured/warmup window per run
  (defaults 3000/2000).
* ``REPRO_BENCH_SUBSET``: number of GPU benchmarks for the heavier
  multi-configuration studies (default varies per figure; the
  mechanism-comparison figures always use all 11).
* ``REPRO_MIXES``: CPU co-runners per GPU benchmark in the mechanism
  sweep (default 2; the paper uses 3).

Per-figure pytest-benchmark times depend on test order: the figure
modules share one per-process result memo, so the first figure to need a
spec (e.g. the unmodified 8x8 baseline) pays for its simulation and later
ones get it for free.  Compare whole-suite wall time, or run one figure
per process.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"

#: CPU co-runners per GPU benchmark in the shared mechanism sweep
MIXES = int(os.environ.get("REPRO_MIXES", "2"))


def subset(default: int) -> int:
    return int(os.environ.get("REPRO_BENCH_SUBSET", str(default)))


def record(result) -> None:
    """Persist an experiment's rendered table and echo it to the log."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{result.name}.txt"
    path.write_text(result.text)
    print()
    print(result.text)


@pytest.fixture
def run_once(benchmark):
    """Run an experiment exactly once under pytest-benchmark timing."""

    def _run(fn):
        return benchmark.pedantic(fn, rounds=1, iterations=1)

    return _run
