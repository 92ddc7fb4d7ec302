"""Surrogate-vs-simulator validation harness.

Sweeps a named grid (the fig05/fig11/fig16 experiment grids, or the tiny
``mesh4x4`` CI grid) through both the analytical surrogate and the real
simulator — the simulator side rides the ``repro.sweep`` ResultCache, so
repeated validations and validations that overlap experiment reruns are
free — and reports per-point relative error, rank correlation and the
speed ratio between the two paths.

The headline metric is ``cpu_latency_avg``: it is the paper's victim
metric (CPU traffic strangled by GPU reply clogging), it is a full
round-trip measurement in the simulator, and it moves by 2-5x across
mechanisms and topologies, so both absolute error and ranking are
meaningful.  Rank correlation is reported because the surrogate's job
downstream (screening, design-space search) needs ordering more than
absolute calibration.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence

from repro.config.system import mechanism_config, table1_mix
from repro.model.compose import predict
from repro.sweep.cache import ResultCache
from repro.sweep.jobs import JobSpec, default_benchmarks, job, mechanism_jobs
from repro.sweep.runner import SweepRunner

GRIDS = ("fig05", "fig11", "fig16", "mesh4x4")

#: error budget pinned by CI (model_validate.sh) and the tier-1 tests.
MEDIAN_ERROR_BUDGET = 0.25
PREDICT_MS_BUDGET = 50.0
#: extra seeds averaged into the simulator side of a grid.  mesh4x4 has
#: four CPU cores, and one seed's 12k-cycle ``cpu_latency_avg`` at a
#: saturated point spreads +-18% (baseline/HS: 386-568 over six seeds) —
#: wider than the gap between neighbouring ranks, so a single draw
#: measures seed luck rather than the surrogate.  The 64-node grids have
#: 16 CPU cores and 30+ points and stay single-seed.
REPLICA_SEEDS = {"mesh4x4": (1, 2, 3)}


@dataclass
class PointReport:
    """One grid point: simulator truth vs surrogate estimate."""

    label: str
    simulated: float
    predicted: float
    rel_err: float
    demand_rho: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "label": self.label,
            "simulated": round(self.simulated, 3),
            "predicted": round(self.predicted, 3),
            "rel_err": round(self.rel_err, 4),
            "demand_rho": round(self.demand_rho, 3),
        }


@dataclass
class ValidationReport:
    grid: str
    metric: str
    n_points: int = 0
    median_rel_err: float = 0.0
    p90_rel_err: float = 0.0
    spearman: float = 0.0
    predict_ms_per_point: float = 0.0
    sim_s_per_point: float = 0.0
    speedup: float = 0.0
    points: List[PointReport] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return (
            self.median_rel_err <= MEDIAN_ERROR_BUDGET
            and self.predict_ms_per_point <= PREDICT_MS_BUDGET
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "grid": self.grid,
            "metric": self.metric,
            "n_points": self.n_points,
            "median_rel_err": round(self.median_rel_err, 4),
            "p90_rel_err": round(self.p90_rel_err, 4),
            "spearman": round(self.spearman, 4),
            "predict_ms_per_point": round(self.predict_ms_per_point, 3),
            "sim_s_per_point": round(self.sim_s_per_point, 3),
            "speedup": round(self.speedup, 1),
            "passed": self.passed,
            "points": [p.to_dict() for p in self.points],
        }


# --- grids ----------------------------------------------------------------


def grid_specs(
    grid: str,
    cycles: Optional[int] = None,
    warmup: Optional[int] = None,
) -> List[JobSpec]:
    """The JobSpecs of a named validation grid.

    The fig05/fig16 grids are the figure modules' own ``specs()`` at the
    grid's benchmark subset and fig11 is the mechanism sweep, so
    simulator ground truth shares cache entries with ordinary figure
    regeneration.
    """
    from repro.experiments import fig05_topology, fig16_topology_dr

    if grid == "fig11":
        return mechanism_jobs(
            default_benchmarks(), n_mixes=1, cycles=cycles, warmup=warmup
        )
    if grid == "fig05":
        return [
            replace(spec, label=(topo.value, f"{bw:g}x", gpu))
            for ((topo, bw), gpu), spec in fig05_topology.specs(
                default_benchmarks(subset=5), cycles, warmup).items()
        ]
    if grid == "fig16":
        return [
            replace(spec, label=(topo, ("baseline", "dr")[i], gpu))
            for ((topo, i), gpu), spec in fig16_topology_dr.specs(
                default_benchmarks(subset=4), cycles, warmup).items()
        ]
    if grid != "mesh4x4":
        raise ValueError(f"unknown grid {grid!r}; choose from {GRIDS}")
    # the 16-node smoke grid defaults to a *longer* window than the big
    # grids: its clog develops slowly, and windows near the global
    # 3000-cycle default measure the still-filling transient 30-50%
    # below steady state.  The system simulates fast enough that the
    # full grid still fits a CI smoke budget.
    cycles = 12000 if cycles is None else cycles
    warmup = 3000 if warmup is None else warmup
    return [
        job(mechanism_config(mech, **table1_mix(4, 4)), gpu, cycles, warmup,
            label=("mesh4x4", mech, gpu))
        for mech in ("baseline", "dr")
        for gpu in default_benchmarks(subset=4)
    ]


# --- statistics -----------------------------------------------------------


def _ranks(values: Sequence[float]) -> List[float]:
    """Average ranks (1-based), ties sharing their mean rank."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        mean_rank = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = mean_rank
        i = j + 1
    return ranks


def spearman(a: Sequence[float], b: Sequence[float]) -> float:
    """Spearman rank correlation, pure Python (no scipy in the image)."""
    if len(a) != len(b) or len(a) < 2:
        return 0.0
    ra, rb = _ranks(a), _ranks(b)
    ma = sum(ra) / len(ra)
    mb = sum(rb) / len(rb)
    cov = sum((x - ma) * (y - mb) for x, y in zip(ra, rb))
    va = sum((x - ma) ** 2 for x in ra)
    vb = sum((y - mb) ** 2 for y in rb)
    if va <= 0.0 or vb <= 0.0:
        return 0.0
    return cov / (va * vb) ** 0.5


def _quantile(sorted_vals: Sequence[float], q: float) -> float:
    if not sorted_vals:
        return 0.0
    pos = q * (len(sorted_vals) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


# --- harness --------------------------------------------------------------


def validate(
    grid: str = "fig11",
    cycles: Optional[int] = None,
    warmup: Optional[int] = None,
    jobs: Optional[int] = None,
    metric: str = "cpu_latency_avg",
    cache: Optional[ResultCache] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> ValidationReport:
    """Run one grid through surrogate and simulator and compare."""
    specs = grid_specs(grid, cycles=cycles, warmup=warmup)
    report = ValidationReport(grid=grid, metric=metric)
    cache = cache or ResultCache()
    if progress:
        progress(f"{grid}: {len(specs)} points, simulating...")

    # a point's ground truth is the mean over its seed replicas
    replicas = [
        [spec] + [spec.reseeded(s) for s in REPLICA_SEEDS.get(grid, ())]
        for spec in specs
    ]
    runner = SweepRunner(cache=cache, jobs=jobs)
    try:
        outcomes = runner.run([r for reps in replicas for r in reps])
    finally:
        runner.close()

    sim_wall = 0.0
    sim_points = 0
    sims: List[float] = []
    preds: List[float] = []
    for spec, reps in zip(specs, replicas):
        outs = [outcomes.get(r.key()) for r in reps]
        if any(o is None or o.result is None for o in outs):
            continue
        wall = 0.0
        for rep, out in zip(reps, outs):
            w = out.wall_time_s
            if w <= 0.0:  # cache hit: recover the recorded simulation time
                entry = cache.get_entry(rep.key())
                if entry:
                    w = float(entry.get("meta", {}).get("wall_time_s", 0.0))
            wall += w
        if wall > 0.0:
            sim_wall += wall
            sim_points += 1

        t0 = time.perf_counter()
        pred = predict(spec.system_config(), spec.gpu, spec.cpu)
        dt_ms = (time.perf_counter() - t0) * 1e3
        report.predict_ms_per_point += dt_ms

        truth = sum(float(getattr(o.result, metric)) for o in outs) / len(outs)
        guess = float(getattr(pred, metric))
        if truth <= 0.0:
            continue
        rel = abs(guess - truth) / truth
        sims.append(truth)
        preds.append(guess)
        label = "/".join(spec.label) if spec.label else f"{spec.gpu}/{spec.cpu}"
        report.points.append(
            PointReport(
                label=label,
                simulated=truth,
                predicted=guess,
                rel_err=rel,
                demand_rho=pred.demand_rho,
            )
        )

    report.n_points = len(report.points)
    if report.n_points:
        report.predict_ms_per_point /= report.n_points
        errs = sorted(p.rel_err for p in report.points)
        report.median_rel_err = _quantile(errs, 0.5)
        report.p90_rel_err = _quantile(errs, 0.9)
        report.spearman = spearman(sims, preds)
    if sim_points:
        report.sim_s_per_point = sim_wall / sim_points
    if report.predict_ms_per_point > 0.0 and report.sim_s_per_point > 0.0:
        report.speedup = (
            report.sim_s_per_point * 1e3 / report.predict_ms_per_point
        )
    return report

