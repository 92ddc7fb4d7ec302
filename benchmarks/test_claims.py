"""Bench: run every selected paper figure in one sweep and judge all of
its claims."""

import time

import pytest

from conftest import RESULTS_DIR, run_speed

from repro.experiments import ALL_EXPERIMENTS, simulate
from repro.experiments.claims import CLAIMS, judge


def _name(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


JUDGED = [m for m in ALL_EXPERIMENTS
          if any(c.figure == _name(m) for c in CLAIMS)]


@pytest.fixture(scope="session")
def simulated(request, ledger):
    """``{figure: {label: SimulationResult}}`` for every figure this
    session selected, from one sweep over the union of their jobs."""
    selected = {item.callspec.params["module"]
                for item in request.session.items
                if item.originalname == "test_claims"}
    modules = [m for m in JUDGED if m in selected]
    start = time.perf_counter()
    results = simulate(modules)
    ledger.update(wall_s=round(time.perf_counter() - start, 1), **run_speed())
    return dict(zip(map(_name, modules), results))


@pytest.mark.parametrize("module", JUDGED, ids=_name)
def test_claims(module, benchmark, simulated, ledger):
    result = benchmark.pedantic(
        module.tabulate, args=(simulated[_name(module)],), rounds=1,
        iterations=1,
    )
    (RESULTS_DIR / f"{result.name}.txt").write_text(result.text)
    verdicts = judge(result)
    print(f"\n{result.text}", *verdicts, sep="\n")
    ledger["figures"][result.name] = {"rows": [v.to_dict() for v in verdicts]}
    failed = [str(v) for v in verdicts if v.verdict.startswith("✗")]
    if failed:
        pytest.fail("\n".join(failed), pytrace=False)
