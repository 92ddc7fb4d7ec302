#!/usr/bin/env python3
"""The repo benchmark: one command, every metric by name with its unit.

    python3 e2e_bench/run.py --seed 1              # all five workloads
    python3 e2e_bench/run.py --smoke               # the same at a tenth, <25 s
    python3 e2e_bench/run.py --compare A.json B.json
    python3 e2e_bench/run.py --workload fullsys8 --seed 1 --seconds 14 --trace 0

The last form is what the benchmark driver calls: one workload in this
process, end-to-end metrics with ``--trace 0`` and per-layer metrics
with ``--trace 1``, one JSON object as the last line of standard output.
Without ``--workload`` each workload runs in a fresh subprocess of this
script, one after another, first untraced, then traced.

See README.md beside this file for what is measured and why.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _die(message: str) -> "NoReturn":  # noqa: F821
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _load_contract() -> Dict:
    try:
        with open(ROOT / "BENCHMARK.json") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        _die(f"cannot read BENCHMARK.json: {exc}")


def _enter_checkout() -> None:
    """Make the run hermetic: no ``REPRO_*`` setting leaks in, and the
    ``repro`` that gets imported is this checkout's."""
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[name]
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        _die(f"cannot import repro from {src}: {exc}")
    if src not in Path(repro.__file__).resolve().parents:
        _die(f"repro was imported from {repro.__file__}, not from {src}")


# ---------------------------------------------------------------------------
# one workload, in this process
# ---------------------------------------------------------------------------


def run_one(args, contract: Dict) -> int:
    _enter_checkout()
    import measure

    kind = "per_layer" if args.trace else "end_to_end"
    runner = measure.run_traced if args.trace else measure.run_end_to_end
    result = runner(args.workload, args.seed, args.seconds, args.smoke)

    values = result["metrics"]
    declared = {m["name"]: m["unit"] for m in contract[kind]}
    unknown = sorted(set(values) - set(declared))
    if unknown:
        _die(f"metrics not declared in BENCHMARK.json: {', '.join(unknown)}")
    if not args.trace and set(declared) - set(values):
        _die(f"missing end-to-end metrics: {sorted(set(declared) - set(values))}")
    # a per-layer metric the workload does not exercise reads zero
    metrics = {
        name: dict(values.get(name, {"value": 0.0}), unit=unit)
        for name, unit in declared.items()
    }
    result["metrics"] = metrics
    result["trace"] = args.trace
    if args.detail:
        with open(args.detail, "w") as fh:
            json.dump(result, fh)

    for line in result["failures"]:
        print(f"error: {line}", file=sys.stderr)
    _print_metrics(result)
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()
                },
            }
        )
    )
    return 1 if result["failed"] else 0


def _print_metrics(result: Dict) -> None:
    name = result["workload"]
    for metric, m in result["metrics"].items():
        print(f"{name} {metric} {m['value']:.6g} {m['unit']}")
    if not result["trace"]:
        print(f"{name} fail_share {result['fail_share']:.6g} share")
        print(f"{name} stats_digest {result['stats_digest']}")


# ---------------------------------------------------------------------------
# all workloads, each in a fresh subprocess
# ---------------------------------------------------------------------------


def run_all(args, contract: Dict) -> int:
    OUT_DIR.mkdir(exist_ok=True)
    runs = [(w["name"], trace) for w in contract["workloads"] for trace in (0, 1)]
    # one subprocess at a time, so nothing contends with a timed run; the
    # smoke run only checks that everything works and may overlap two
    with ThreadPoolExecutor(max_workers=2 if args.smoke else 1) as pool:
        results = list(pool.map(lambda run: _run_child(args, contract, *run), runs))
    workloads: Dict[str, Dict] = {w["name"]: {"why": w["why"]} for w in contract["workloads"]}
    for (name, trace), result in zip(runs, results):
        kind = "per_layer" if trace else "end_to_end"
        entry = workloads[name]
        entry[kind] = result["metrics"]
        entry[f"{kind}_ops"] = {
            k: result[k] for k in ("attempted", "failed", "fail_share", "failures")
        }
        if not trace:
            entry["stats_digest"] = result["stats_digest"]
    report = {
        "provenance": _provenance(args, workloads[runs[0][0]]["per_layer"]),
        "workloads": workloads,
    }
    out = Path(args.out) if args.out else OUT_DIR / "result.json"
    with open(out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(f"wrote {out}")
    return 1 if any(r["failed"] for r in results) else 0


def _run_child(args, contract: Dict, name: str, trace: int) -> Dict:
    """Run one workload in a fresh subprocess of this script; echo its
    metric lines, check its result line, return its full result."""
    detail = OUT_DIR / f".detail_{name}_{trace}.json"
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace), "--detail", str(detail),
    ] + (["--smoke"] if args.smoke else [])
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.rstrip().split("\n")
    if proc.returncode not in (0, 1) or not detail.exists():
        _die(f"{name} --trace {trace} exited with code {proc.returncode}")
    _check_schema(
        json.loads(lines[-1]), contract["per_layer" if trace else "end_to_end"]
    )
    print("\n".join(lines[:-1]), flush=True)
    with open(detail) as fh:
        result = json.load(fh)
    detail.unlink()
    return result


def _check_schema(line: Dict, declared: List[Dict]) -> None:
    """The result line has exactly the contract's keys and metrics."""
    if set(line) != RESULT_KEYS:
        _die(f"result line has keys {sorted(line)}")
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v.get("unit") for k, v in line["metrics"].items()}
    if got != want:
        odd = sorted(set(got.items()) ^ set(want.items()))
        _die(f"result line metrics differ from BENCHMARK.json: {odd[:6]}")
    for name, m in line["metrics"].items():
        if set(m) != {"value", "unit"} or not isinstance(m["value"], (int, float)):
            _die(f"metric {name} is not a value with a unit: {m}")


def _provenance(args, per_layer: Dict) -> Dict:
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for row in fh:
                if row.startswith("model name"):
                    cpu = row.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {
        "git_commit": commit,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "host.calib_s_p50": per_layer["host.calib_s_p50"]["value"],
    }


# ---------------------------------------------------------------------------
# comparing two result files
# ---------------------------------------------------------------------------


def compare(path_a: str, path_b: str, contract: Dict) -> int:
    """One row per (workload, end-to-end metric): A, B, the change as a
    share of A, the bound, and a verdict."""
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    print(f"A = {path_a} ({a['provenance']['git_commit'][:12]})")
    print(f"B = {path_b} ({b['provenance']['git_commit'][:12]})")
    header = f"{'workload':14} {'metric':21} {'A [q1, q3]':>32} {'B [q1, q3]':>32} {'B vs A':>9} {'bound':>6}  verdict"
    print(header)
    regressions = 0
    for w in contract["workloads"]:
        name = w["name"]
        wa, wb = a["workloads"].get(name), b["workloads"].get(name)
        if wa is None or wb is None:
            print(f"{name:14} missing from {'A' if wa is None else 'B'}")
            regressions += 1
            continue
        for m in contract["end_to_end"]:
            ma, mb = wa["end_to_end"][m["name"]], wb["end_to_end"][m["name"]]
            delta = (mb["value"] - ma["value"]) / ma["value"]
            worse = delta if m["better"] == "lower" else -delta
            if max(_rel_spread(ma), _rel_spread(mb)) > m["bound"]:
                verdict = "unresolved (quartiles wider than the bound)"
            elif worse > m["bound"]:
                verdict = "REGRESSION"
                regressions += 1
            else:
                verdict = "ok"
            print(
                f"{name:14} {m['name']:21} {_cell(ma):>32} {_cell(mb):>32} "
                f"{100 * delta:+8.2f}% {100 * m['bound']:5.0f}%  {verdict}"
            )
        same = wa["stats_digest"] == wb["stats_digest"]
        fails = (wa["end_to_end_ops"]["fail_share"], wb["end_to_end_ops"]["fail_share"])
        print(
            f"{name:14} {'stats_digest':21} {wa['stats_digest'][:12]:>32} "
            f"{wb['stats_digest'][:12]:>32} {'same' if same else 'DIFFERS'}"
        )
        print(f"{name:14} {'fail_share':21} {fails[0]:>32.6g} {fails[1]:>32.6g}")
        regressions += fails[1] > fails[0]
    print("B vs A is (B - A) / A; a metric is worse when it moves against its direction.")
    return 1 if regressions else 0


def _rel_spread(m: Dict) -> float:
    if "q1" not in m or not m["median"]:
        return 0.0
    return (m["q3"] - m["q1"]) / m["median"]


def _cell(m: Dict) -> str:
    if "q1" not in m:
        return f"{m['value']:.5g}"
    return f"{m['value']:.5g} [{m['q1']:.5g}, {m['q3']:.5g}]"


# ---------------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    contract = _load_contract()
    names = [w["name"] for w in contract["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names, help="run this one workload in-process")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument(
        "--seconds", type=float, default=None,
        help="how long a run measures (default: run_seconds of BENCHMARK.json)",
    )
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="a tenth of every window, 1+2 reps")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    ap.add_argument("--out", help="where the all-workloads run writes its result")
    ap.add_argument("--detail", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else float(contract["run_seconds"])
    if args.compare:
        return compare(args.compare[0], args.compare[1], contract)
    if not (ROOT / "src" / "repro").is_dir():
        _die(f"no repro package under {ROOT / 'src'}; run from a checkout of the repository")
    if args.workload:
        return run_one(args, contract)
    return run_all(args, contract)


if __name__ == "__main__":
    sys.exit(main())
