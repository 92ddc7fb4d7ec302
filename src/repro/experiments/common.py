"""Shared infrastructure for the per-figure experiment modules.

Each module in :data:`repro.experiments.ALL_EXPERIMENTS` describes one
paper figure/table in two functions:

* ``specs(benchmarks=None, cycles=None, warmup=None, ...) -> {label:
  JobSpec}`` enumerates one :class:`~repro.sweep.JobSpec` per point the
  figure needs (:func:`repro.sweep.jobs.job`, the rule that picks the
  co-runner and the window);
* ``tabulate({label: SimulationResult}) -> ExperimentResult`` renders
  those labels' results, in ``specs`` order, with :func:`table`.  It is
  pure: the labels carry everything it needs.

:func:`simulate` is the one code here that executes a job: one
:func:`repro.sweep.run_sweep` call over the union of several modules'
specs, one per ``JobSpec.key()``; :func:`run` then tabulates each module.
So the figures run together share their specs (the unmodified baseline
of Figs. 5, 7, 15, 16 and the ablations is one simulation).

The evaluation's tables come in three shapes, one builder and one
reader each:

* a ratio to a reference design point, per benchmark (Figs. 6, 7, 15):
  :func:`config_specs`, then :func:`over_reference`;
* DR over each design point's own baseline (Figs. 16-19, node mix,
  ablations): :func:`pair_specs`, then :func:`dr_over_baseline` and
  :func:`ratios` or :func:`dr_speedup_rows`;
* the baseline/RP/DR sweep grouped by GPU or CPU benchmark (Figs. 10-14,
  energy): :func:`mechanism_specs`, then :func:`mechanism_groups`.

:func:`ratios` is the one ratio rule: a pair whose base is not positive
measured nothing to scale by and is skipped, and a row left with no
samples is left out of the table.  A single quotient over such a base
(:func:`ratio`) and a mean of nothing are NaN, which the claims read as
unmeasured.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from types import ModuleType
from typing import (
    Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple,
)

from repro.analysis.report import Row, amean, format_table
from repro.config.system import MECHANISMS, SystemConfig
from repro.sim.metrics import SimulationResult
from repro.sweep import JobSpec, mechanism_jobs, run_sweep
from repro.sweep.jobs import default_mixes, job


@dataclass
class ExperimentResult:
    """Output of one experiment: rows, a rendered table and raw data."""

    name: str
    rows: List[Row]
    text: str
    data: Dict = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.text


def table(
    name: str,
    title: str,
    rows: List[Row],
    mean: Optional[str] = None,
    label_header: str = "benchmark",
    data: Optional[Dict] = None,
    note: str = "",
) -> ExperimentResult:
    """A figure's result: ``rows`` rendered as one titled table, with a
    ``mean`` row (``"amean"``/``"hmean"``) where the paper reports one,
    followed by ``note``."""
    text = format_table(title, rows, mean=mean, label_header=label_header)
    return ExperimentResult(name, rows, text + note, data or {})


def ratio(num: float, den: float) -> float:
    """``num / den``, or NaN (unmeasured) over a base that is not positive."""
    return num / den if den > 0 else math.nan


def ratios(
    pairs: Iterable[Tuple[SimulationResult, SimulationResult]],
    metric: str = "gpu_ipc",
) -> List[float]:
    """``metric`` of ``new / base`` for each ``(base, new)`` result pair,
    in order, skipping a pair whose base is not positive (it measured
    nothing to scale by)."""
    return [getattr(new, metric) / getattr(base, metric)
            for base, new in pairs if getattr(base, metric) > 0]


def traced(cfg: SystemConfig) -> SystemConfig:
    """``cfg`` with aggregate-only telemetry (no trace file) and exact
    stall attribution: the runs whose results carry a stall breakdown
    and the locality counters (Fig. 2, the stall decomposition)."""
    cfg.telemetry.enabled = True
    cfg.telemetry.mode = "full"
    return cfg


# ----------------------------------------------------------------------
# the one execution path: every module's specs -> one sweep -> tabulate
# ----------------------------------------------------------------------

Specs = Dict[Hashable, JobSpec]
Results = Mapping[Hashable, SimulationResult]


def simulate(
    modules: Sequence[ModuleType], jobs: Optional[int] = None, **kwargs
) -> List[Dict[Hashable, SimulationResult]]:
    """Each module's ``{label: SimulationResult}``, in ``specs`` order,
    from one sweep over all their jobs.

    ``kwargs`` go to every module's ``specs``; the union of the specs,
    one per ``key()``, goes to a single :func:`repro.sweep.run_sweep`
    call — ``jobs`` worker processes (default ``REPRO_SWEEP_JOBS`` or 1)
    and, when ``REPRO_SWEEP_CACHE`` is set, the on-disk result cache.
    """
    points = [module.specs(**kwargs) for module in modules]
    unique = {spec.key(): spec for specs in points for spec in specs.values()}
    results = run_sweep(list(unique.values()), jobs=jobs)
    return [{label: results[spec.key()] for label, spec in specs.items()}
            for specs in points]


def run(
    modules: Sequence[ModuleType], jobs: Optional[int] = None, **kwargs
) -> List[ExperimentResult]:
    """Each module's table, its jobs run in one sweep with the others'
    (:func:`simulate`)."""
    return [module.tabulate(results) for module, results
            in zip(modules, simulate(modules, jobs, **kwargs))]


def config_specs(
    configs: Mapping[Hashable, SystemConfig],
    benchmarks: Sequence[str],
    cycles: Optional[int] = None,
    warmup: Optional[int] = None,
) -> Specs:
    """``{point: config}`` on every benchmark: ``{(point, gpu): spec}``
    (:func:`repro.sweep.jobs.job` picks the co-runner and windows)."""
    return {
        (point, gpu): job(cfg, gpu, cycles, warmup)
        for point, cfg in configs.items()
        for gpu in benchmarks
    }


def points_and_benchmarks(results: Results) -> Tuple[List, List[str]]:
    """The design points and the benchmarks of :func:`config_specs`
    labels, each in the order it first appears."""
    return (list(dict.fromkeys(point for point, _ in results)),
            list(dict.fromkeys(gpu for _, gpu in results)))


def pair_specs(
    pairs: Mapping[str, Tuple[SystemConfig, SystemConfig]],
    benchmarks: Sequence[str],
    cycles: Optional[int] = None,
    warmup: Optional[int] = None,
) -> Specs:
    """``{point: (baseline config, DR config)}`` on every benchmark, for
    :func:`dr_over_baseline`."""
    return config_specs({(point, i): cfg for point, cfgs in pairs.items()
                         for i, cfg in enumerate(cfgs)},
                        benchmarks, cycles, warmup)


def dr_over_baseline(
    results: Results,
) -> Dict[str, List[Tuple[SimulationResult, SimulationResult]]]:
    """:func:`pair_specs` results as one ``(baseline result, DR result)``
    pair per benchmark, per design point."""
    pairs, benchmarks = points_and_benchmarks(results)
    return {
        point: [(results[((point, 0), gpu)], results[((point, 1), gpu)])
                for gpu in benchmarks]
        for point in dict.fromkeys(point for point, _ in pairs)
    }


def over_reference(
    raw: Results, ref: Hashable, columns: Mapping[str, Hashable]
) -> List[Row]:
    """Per benchmark of :func:`config_specs` results, each design point's
    GPU IPC over the ``ref`` point's: ``{column: point}`` names the
    columns.  A benchmark whose reference measured no IPC is left out."""
    rows = []
    for gpu in points_and_benchmarks(raw)[1]:
        cells = ratios((raw[(ref, gpu)], raw[(point, gpu)])
                       for point in columns.values())
        if cells:
            rows.append((gpu, dict(zip(columns, cells))))
    return rows


def dr_speedup_rows(
    runs: Mapping[str, List[Tuple[SimulationResult, SimulationResult]]],
) -> List[Row]:
    """One ``(point, {"dr_speedup": mean GPU IPC ratio})`` row per design
    point of :func:`dr_over_baseline`, leaving out a point with none."""
    rows = []
    for point, pairs in runs.items():
        speedups = ratios(pairs)
        if speedups:
            rows.append((point, {"dr_speedup": amean(speedups)}))
    return rows


def mechanism_specs(
    benchmarks: Optional[Sequence[str]] = None,
    n_mixes: Optional[int] = None,
    cycles: Optional[int] = None,
    warmup: Optional[int] = None,
) -> Specs:
    """Every (GPU bench, CPU co-runner, mechanism) triple, labelled
    ``(gpu, cpu, mechanism)``: the sweep behind Figures 10-14 and the
    energy study (``benchmarks`` default to all 11, ``n_mixes`` to
    :func:`repro.sweep.jobs.default_mixes`)."""
    return {spec.label: spec for spec in mechanism_jobs(
        benchmarks, n_mixes or default_mixes(), cycles, warmup)}


def mechanism_groups(
    results: Results, by_cpu: bool = False
) -> Dict[str, List[Dict[str, SimulationResult]]]:
    """:func:`mechanism_specs` results as ``{benchmark: [{mechanism:
    result}, ...]}``, one dict per (GPU, CPU) mix, grouped by GPU
    benchmark in sweep order or, with ``by_cpu``, by CPU co-runner in
    name order."""
    groups: Dict[str, List[Dict[str, SimulationResult]]] = defaultdict(list)
    for gpu, cpu in dict.fromkeys((gpu, cpu) for gpu, cpu, _ in results):
        groups[cpu if by_cpu else gpu].append(
            {mech: results[(gpu, cpu, mech)] for mech in MECHANISMS}
        )
    return dict(sorted(groups.items()) if by_cpu else groups)
