"""Replay the mutant catalogue (``tests/mutants.py``).

For each row: copy ``src/`` to a temporary directory, replace the row's
line there, run ``pytest -x -q`` on the row's tests against the copy,
and print the row as

* ``killed``   — a named test failed (what a row expects);
* ``survived`` — every named test passed (expected only of a row marked
  ``survives``);
* ``stale``    — the line is not in the file exactly once (the code moved:
  fix or delete the row);
* ``error``    — pytest could not run the tests (a bad node id, say).

Exits 1 unless every row is killed, or survived where marked so.
Standard library only.  Usage, from the repo root::

    python .github/scripts/mutants.py            # every row
    python .github/scripts/mutants.py ID [ID...] # the named rows
"""

from __future__ import annotations

import importlib.util
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
#: a row's tests may run this long before it counts as killed
TIMEOUT_S = 1200


def load_catalogue():
    spec = importlib.util.spec_from_file_location(
        "mutants", ROOT / "tests" / "mutants.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules["mutants"] = module  # NamedTuple needs its module
    spec.loader.exec_module(module)
    return module.MUTANTS


def mutate(text: str, row) -> str:
    """``text`` with the row's line(s) replaced; ValueError unless the
    line occurs exactly once, as whole lines."""
    padded = "\n" + text
    needle = "\n" + row.line + "\n"
    count = padded.count(needle)
    if count != 1:
        raise ValueError(f"line found {count} times in {row.file}")
    return padded.replace(needle, "\n" + row.replacement + "\n")[1:]


def run_row(row, src_copy: Path) -> str:
    target = src_copy / row.file
    original = target.read_text(encoding="utf-8")
    try:
        target.write_text(mutate(original, row), encoding="utf-8")
    except ValueError:
        return "stale"
    env = dict(os.environ, PYTHONPATH=str(src_copy),
               PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q",
             "-p", "no:cacheprovider", *row.tests],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return "killed"  # a hang fails the test too
    finally:
        target.write_text(original, encoding="utf-8")
    if proc.returncode == 1:
        return "killed"
    if proc.returncode == 0:
        return "survived"
    sys.stdout.write(proc.stdout[-2000:] + proc.stderr[-2000:])
    return "error"


def main(argv) -> int:
    rows = load_catalogue()
    if argv:
        unknown = set(argv) - {row.id for row in rows}
        if unknown:
            print(f"error: unknown mutant id(s): {', '.join(sorted(unknown))}")
            return 2
        rows = [row for row in rows if row.id in argv]
    with tempfile.TemporaryDirectory() as tmp:
        src_copy = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src_copy,
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        # the copy, not an installed repro, is what the tests must import
        probe = subprocess.run(
            [sys.executable, "-c", "import repro; print(repro.__file__)"],
            env=dict(os.environ, PYTHONPATH=str(src_copy)),
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        if not Path(probe).resolve().is_relative_to(src_copy.resolve()):
            print(f"error: the tests import repro from {probe}, not the copy")
            return 2
        bad = killed = 0
        for row in rows:
            t0 = time.perf_counter()
            status = run_row(row, src_copy)
            expected = "survived" if row.survives else "killed"
            ok = status == expected
            killed += status == "killed"
            bad += not ok
            note = "" if ok else f"  <- expected {expected}"
            if row.survives:
                note += f"  (known survivor: item {row.item})"
            print(f"{status:>8}  {row.id}  [{time.perf_counter() - t0:.0f} s]"
                  f"{note}", flush=True)
    print(f"{killed}/{len(rows)} killed; "
          f"{sum(row.survives for row in rows)} known survivor(s); "
          f"{bad} row(s) not as catalogued")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
