"""Simulated results pinned to ``CODE_VERSION`` (ROADMAP item 15).

A :class:`~repro.sweep.ResultCache` key includes ``CODE_VERSION``, so a
change that moves any simulated number must bump it, or the cache serves
stale results as current.  This test holds that rule: nine small runs
(baseline, RP and DR x HS, BP and BT, each with canneal, on the default
8x8 chip, 300 + 500 cycles on the object kernel) keep the sha256 of
their ``to_dict()`` in ``pinned_results.json``, beside the
``CODE_VERSION`` they were recorded under.

* While ``CODE_VERSION`` equals the recorded one, a digest that differs
  fails the test and names every run that moved.
* A change that means to move results bumps ``CODE_VERSION`` and
  re-records, in one command from the repo root::

      PYTHONPATH=src python tests/test_pinned_results.py

  The test fails until it does.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict

from repro.api import simulate
from repro.config import mechanism_config
from repro.sweep.jobs import CODE_VERSION

PINS = Path(__file__).with_name("pinned_results.json")
RERECORD = "PYTHONPATH=src python tests/test_pinned_results.py"
MECHANISMS = ("baseline", "rp", "dr")
GPUS = ("HS", "BP", "BT")


def digests() -> Dict[str, str]:
    """``{"<mechanism>/<gpu>": sha256 of the run's to_dict()}``."""
    out = {}
    for mechanism in MECHANISMS:
        for gpu in GPUS:
            result = simulate(mechanism_config(mechanism), gpu,
                              cpu="canneal", warmup=300, cycles=500,
                              backend="object")
            text = json.dumps(result.to_dict(), sort_keys=True)
            out[f"{mechanism}/{gpu}"] = hashlib.sha256(
                text.encode()).hexdigest()
    return out


def test_results_match_the_pins_recorded_under_this_code_version():
    pinned = json.loads(PINS.read_text())
    assert pinned["code_version"] == CODE_VERSION, (
        f"the pins were recorded under {pinned['code_version']}, the code "
        f"is {CODE_VERSION}: re-record them with `{RERECORD}`"
    )
    now = digests()
    moved = sorted(name for name in now.keys() | pinned["digests"].keys()
                   if now.get(name) != pinned["digests"].get(name))
    assert not moved, (
        f"results moved at unchanged CODE_VERSION {CODE_VERSION}: "
        f"{', '.join(moved)}. If that is meant, bump CODE_VERSION in "
        f"repro/sweep/jobs.py and re-record with `{RERECORD}`"
    )


if __name__ == "__main__":
    PINS.write_text(json.dumps(
        {"code_version": CODE_VERSION, "digests": digests()}, indent=1,
    ) + "\n")
    print(f"re-recorded {PINS.name} under {CODE_VERSION}")
