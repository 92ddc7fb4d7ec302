"""The ``python -m repro explore`` commands.

* ``run``      — execute one hybrid search and write a frontier manifest
* ``frontier`` — inspect a manifest (table/JSON); ``--compare`` scores two
  manifests' frontiers by hypervolume at a shared reference point
* ``show``     — describe a named search space (knobs, objectives,
  reference designs)

Examples::

    python -m repro explore run --space mesh4x4 --budget 64 --seed 7 \\
        --out frontier.json
    python -m repro explore run --space mesh4x4 --algo random \\
        --surrogate-only --format json
    python -m repro explore frontier frontier.json
    python -m repro explore frontier nsga2.json --compare random.json
    python -m repro explore show --space mesh8x8
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, Optional

from repro.analysis.report import format_table
from repro.cli import add_command, add_options, emit
from repro.explore.objectives import (
    OBJECTIVE_NAMES,
    SENSES,
    score_frontiers,
    vector,
)
from repro.explore.pareto import ParetoFrontier
from repro.explore.search import (
    ALGORITHMS,
    DEFAULT_BUDGET,
    DEFAULT_POPULATION,
    DEFAULT_SIM_FRACTION,
    explore,
)
from repro.explore.space import SPACES, demo_space

_MANIFEST_KEYS = ("explore", "counts", "hypervolume", "frontier", "evaluations")


def _load_manifest(path: str) -> Dict[str, Any]:
    with open(path) as fh:
        data = json.load(fh)
    if not all(k in data for k in _MANIFEST_KEYS):
        raise ValueError(f"{path}: not an explore manifest")
    return data


def _frontier_table(data: Dict[str, Any]) -> str:
    """The frontier table of a manifest (``explore run`` and ``explore
    frontier`` both print it), then the DR-dominance verdict."""
    meta, counts = data["explore"], data["counts"]
    title = (
        f"{meta['space']} frontier ({meta['algo']}, seed {meta['seed']}, "
        f"{counts['evaluated']} evaluated / {counts['simulated']} simulated, "
        f"hv {data['hypervolume']:.4g})"
    )
    points = sorted(
        data["frontier"]["points"],
        key=lambda p: (p["objectives"]["cpu_latency_p95"], p["config_hash"]),
    )
    rows = [
        (
            f"{p['values'].get('mechanism', p['mechanism'])}/{p['gpu']}/"
            f"{p['config_hash'][:8]}{'*' if p['source'] == 'simulated' else ''}",
            dict(p["objectives"]),
        )
        for p in points
    ]
    out = format_table(
        title, rows, columns=list(OBJECTIVE_NAMES), mean=None,
        label_header="design",
    ) + "(* = simulated ground truth)\n"
    dom = data.get("dr_dominance")
    if dom is not None:
        verdict = "holds" if dom["holds"] else "does NOT hold"
        out += (
            f"\nDR-dominates-baseline ({', '.join(dom['objectives'])}, "
            f"{dom['tier']}, gpu {dom['gpu']}): {verdict} "
            f"({len(dom['dominating'])} dominating design(s))"
        )
    return out


def cmd_run(args: argparse.Namespace) -> int:
    progress = (
        (lambda msg: print(msg, file=sys.stderr))
        if args.format == "table"
        else None
    )
    outcome = explore(
        args.space,
        algo=args.algo,
        budget=args.budget,
        population=args.population,
        seed=args.seed if args.seed is not None else 0,
        surrogate_only=args.surrogate_only,
        sim_fraction=args.sim_fraction,
        jobs=args.jobs,
        cycles=args.cycles,
        warmup=args.warmup,
        cache=args.cache_dir if args.cache_dir else "auto",
        progress=progress,
    )
    manifest = outcome.manifest()
    emit(args, manifest, lambda: _frontier_table(manifest))
    return 0 if len(outcome.frontier) else 1


def cmd_frontier(args: argparse.Namespace) -> int:
    data = _load_manifest(args.manifest)
    meta = data["explore"]
    payload: Dict[str, Any] = {
        "manifest": args.manifest,
        "explore": meta,
        "counts": data["counts"],
        "hypervolume": data["hypervolume"],
        "dr_dominance": data.get("dr_dominance"),
        "frontier": data["frontier"],
    }
    compare: Optional[Dict[str, Any]] = None
    if args.compare:
        other = _load_manifest(args.compare)
        # union reference so both frontiers are scored in the same box
        evaluated = [
            vector(r["objectives"])
            for m in (data, other) for r in m["evaluations"]
        ]
        if not evaluated:
            raise ValueError("manifests carry no evaluations to compare")
        ref, (hv_a, hv_b) = score_frontiers(
            evaluated,
            [ParetoFrontier.from_dict(m["frontier"]).vectors()
             for m in (data, other)],
        )
        compare = {
            "other": args.compare,
            "other_algo": other["explore"].get("algo"),
            "reference": dict(zip(OBJECTIVE_NAMES, ref)),
            "hypervolume": round(hv_a, 6),
            "other_hypervolume": round(hv_b, 6),
            "winner": args.manifest if hv_a > hv_b else (
                args.compare if hv_b > hv_a else "tie"
            ),
        }
        payload["compare"] = compare

    def render() -> str:
        out = _frontier_table(data)
        if compare is not None:
            out += (
                f"\nshared-reference hypervolume: "
                f"{compare['hypervolume']:.6g} ({meta.get('algo')}) vs "
                f"{compare['other_hypervolume']:.6g} "
                f"({compare['other_algo']}) -> winner: {compare['winner']}"
            )
        return out

    emit(args, payload, render)
    return 0


def cmd_show(args: argparse.Namespace) -> int:
    space = demo_space(args.space)
    desc = space.describe()
    desc["objectives"] = [
        {"name": n, "sense": s} for n, s in zip(OBJECTIVE_NAMES, SENSES)
    ]
    desc["reference_designs"] = [
        space.values(g) for g in space.reference_genomes()
    ]

    def render() -> str:
        lines = [
            f"space {desc['name']}: {desc['description']}",
            f"  mesh {desc['mesh']}, window {desc['cycles']}+{desc['warmup']} "
            f"cycles, {desc['size']} designs",
            "  objectives: "
            + ", ".join(f"{n} ({s})" for n, s in zip(OBJECTIVE_NAMES, SENSES)),
            "  knobs:",
        ]
        for k in desc["knobs"]:
            values = ", ".join(str(v) for v in k["values"])
            lines.append(
                f"    {k['name']:<28s} [{values}] "
                f"(default {k['default']}, -> {k['path']})"
            )
        lines.append("  reference designs:")
        for vals in desc["reference_designs"]:
            lines.append(
                "    "
                + ", ".join(f"{n}={v}" for n, v in vals.items())
            )
        return "\n".join(lines)

    emit(args, desc, render)
    return 0


def register(sub) -> None:
    """Add the ``explore`` group's commands to the subparsers action."""
    space = dict(choices=sorted(SPACES), default="mesh4x4",
                 help="named search space (default: %(default)s)")

    run = add_command(sub, "run", cmd_run,
                      "run one search, emit a frontier manifest")
    run.add_argument("--space", **space)
    run.add_argument(
        "--algo", choices=ALGORITHMS, default="nsga2",
        help="search policy (default: %(default)s)",
    )
    run.add_argument(
        "--budget", type=int, default=DEFAULT_BUDGET,
        help="unique candidate evaluations (default: %(default)s)",
    )
    run.add_argument(
        "--population", type=int, default=DEFAULT_POPULATION,
        help="NSGA-II population size (default: %(default)s)",
    )
    run.add_argument(
        "--surrogate-only", action="store_true",
        help="skip simulation entirely; frontier from surrogate scores",
    )
    run.add_argument(
        "--sim-fraction", type=float, default=DEFAULT_SIM_FRACTION,
        help="max fraction of evaluated candidates promoted to "
        "simulation (default: %(default)s)",
    )
    add_options(
        run, "cache-dir", "seed", "cycles", "warmup", "jobs", "out", "format",
        cache_dir=dict(help="sweep result cache directory "
                            "(default: $REPRO_SWEEP_CACHE, else no persistence)"),
        seed=dict(help="search RNG seed (default: 0)"),
        out=dict(help="write the frontier manifest JSON here"),
    )

    frontier = add_command(sub, "frontier", cmd_frontier,
                           "inspect or compare frontier manifests")
    frontier.add_argument("manifest", help="explore manifest JSON path")
    frontier.add_argument(
        "--compare", default=None,
        help="second manifest; score both frontiers at a shared reference",
    )
    add_options(frontier, "format")

    show = add_command(sub, "show", cmd_show, "describe a named search space")
    show.add_argument("--space", **space)
    add_options(show, "format")
