"""The paper-claims loop: ``pytest benchmarks/ --benchmark-only``.

``test_claims.py`` builds the specs of every selected figure that has
rows in :data:`repro.experiments.claims.CLAIMS` (the specs ``python -m
repro experiment NAME`` runs under the same environment), runs their
union once through one sweep, then tabulates each figure, writes its
table to ``results/<figure>.txt`` and judges every row; the verdicts,
the settings, the code version and the loop's wall seconds go to
``results/claims.json``, which EXPERIMENTS.md's ledger is rendered from.
The settings change numbers: ``REPRO_CYCLES`` / ``REPRO_WARMUP``
(3000/2000), ``REPRO_BENCH_SUBSET`` (3-6 GPU benchmarks by figure; the
mechanism figures run all 11), ``REPRO_MIXES`` (2 co-runners).
``REPRO_SWEEP_JOBS`` / ``REPRO_SWEEP_CACHE`` change only the wall time,
and are recorded beside it.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.experiments import ALL_EXPERIMENTS
from repro.sweep.cache import ENV_CACHE_DIR
from repro.sweep.jobs import CODE_VERSION
from repro.sweep.runner import default_jobs

RESULTS_DIR = Path(__file__).parent / "results"
CLAIMS_JSON = RESULTS_DIR / "claims.json"
RESULT_SETTINGS = ("REPRO_CYCLES", "REPRO_WARMUP", "REPRO_BENCH_SUBSET",
                   "REPRO_MIXES")


def run_settings() -> dict:
    return {k: os.environ[k] for k in RESULT_SETTINGS if os.environ.get(k)}


def run_speed() -> dict:
    """What a wall time depends on but no number does."""
    return {"workers": default_jobs(),
            "sweep_cache": bool(os.environ.get(ENV_CACHE_DIR))}


@pytest.fixture(scope="session")
def ledger():
    """``{"figures": {figure: {"rows"}}}`` of this session plus the
    loop's ``wall_s``, ``workers`` and ``sweep_cache``, merged at the
    end into ``claims.json`` when that was written under the same
    settings and code version, replacing it otherwise."""
    session = {"figures": {}}
    yield session
    figures = session.pop("figures")
    if not figures:
        return
    doc = {"code_version": CODE_VERSION, "settings": run_settings(),
           **session, "figures": {}}
    if CLAIMS_JSON.exists():
        old = json.loads(CLAIMS_JSON.read_text(encoding="utf-8"))
        if (old["code_version"], old["settings"]) == \
                (doc["code_version"], doc["settings"]):
            doc["figures"] = old["figures"]
    doc["figures"].update(figures)
    order = [m.__name__.rsplit(".", 1)[-1] for m in ALL_EXPERIMENTS]
    doc["figures"] = dict(sorted(doc["figures"].items(),
                                 key=lambda item: order.index(item[0])))
    CLAIMS_JSON.write_text(json.dumps(doc, indent=1, ensure_ascii=False)
                           + "\n", encoding="utf-8")
