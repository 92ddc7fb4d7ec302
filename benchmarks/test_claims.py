"""Bench: run every paper figure once and judge all of its claims."""

import time

import pytest

from conftest import RESULTS_DIR, run_speed

from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.claims import CLAIMS, judge


def _name(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


@pytest.mark.parametrize(
    "module",
    [m for m in ALL_EXPERIMENTS if any(c.figure == _name(m) for c in CLAIMS)],
    ids=_name,
)
def test_claims(module, benchmark, ledger):
    start = time.perf_counter()
    result = benchmark.pedantic(module.run, rounds=1, iterations=1)
    wall_s = time.perf_counter() - start
    (RESULTS_DIR / f"{result.name}.txt").write_text(result.text)
    verdicts = judge(result)
    print(f"\n{result.text}", *verdicts, sep="\n")
    ledger[result.name] = {"wall_s": round(wall_s, 1), **run_speed(),
                           "rows": [v.to_dict() for v in verdicts]}
    failed = [str(v) for v in verdicts if v.verdict.startswith("✗")]
    if failed:
        pytest.fail("\n".join(failed), pytrace=False)
