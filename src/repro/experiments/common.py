"""Shared infrastructure for the per-figure experiment modules.

Each ``figNN_*`` module exposes ``run(...) -> ExperimentResult`` that
regenerates one paper figure/table: same rows, same normalisations.
Every module runs its simulations the same way: enumerate one
:class:`~repro.sweep.JobSpec` per point the figure needs
(:func:`repro.sweep.jobs.job`, the rule that picks the co-runner and the
window), hand the whole batch to :func:`simulate`, tabulate with
:func:`table`.  :func:`simulate` keeps one process-level memo indexed by
``JobSpec.key()`` and passes only the specs it has not seen to a single
:func:`repro.sweep.run_sweep` call, so a spec is simulated once per
process whichever figure asks first (the unmodified baseline of Figs. 5,
7, 15, 16 and the ablations is one simulation), and every figure gets the
runner's process-level parallelism (``REPRO_SWEEP_JOBS``) and on-disk
result cache (``REPRO_SWEEP_CACHE``).

The evaluation's tables come in three shapes, one helper each:

* a ratio to a reference design point, per benchmark (Figs. 6, 7, 15):
  :func:`over_reference` on :func:`simulate_configs`;
* DR over each design point's own baseline (Figs. 16-19, node mix,
  ablations): :func:`dr_over_baseline`, then :func:`ratios` or
  :func:`dr_speedup_rows`;
* the baseline/RP/DR sweep grouped by GPU or CPU benchmark (Figs. 10-14,
  energy): :func:`mechanism_groups`.

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
from typing import (
    Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple,
)

from repro.analysis.report import Row, amean, format_table
from repro.config.system import MECHANISMS, SystemConfig
from repro.sim.metrics import SimulationResult
from repro.sweep import JobSpec, mechanism_jobs, run_sweep
from repro.sweep.jobs import cpu_corunners, default_mixes, job


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


# ----------------------------------------------------------------------
# the one execution path: enumerate specs -> simulate once -> tabulate
# ----------------------------------------------------------------------

#: every simulation the experiment modules have run in this process
_RESULTS: Dict[str, SimulationResult] = {}


def simulate(
    points: Mapping[Hashable, JobSpec], jobs: Optional[int] = None
) -> Dict[Hashable, SimulationResult]:
    """Results for a figure's labelled specs, each simulated at most once.

    Specs no experiment module has run in this process go to the
    :mod:`repro.sweep` runner in one batch — ``jobs`` worker processes
    (default ``REPRO_SWEEP_JOBS`` or 1) and, when ``REPRO_SWEEP_CACHE``
    is set, the on-disk result cache; everything else is a memo hit.
    """
    keys = {label: spec.key() for label, spec in points.items()}
    # by key: several labels may name one spec (Fig. 19's default config
    # is a point of five panels)
    missing = {
        keys[label]: spec
        for label, spec in points.items()
        if keys[label] not in _RESULTS
    }
    if missing:
        _RESULTS.update(run_sweep(list(missing.values()), jobs=jobs))
    return {label: _RESULTS[key] for label, key in keys.items()}


def simulate_configs(
    configs: Mapping[Hashable, SystemConfig],
    benchmarks: Sequence[str],
    cycles: Optional[int] = None,
    warmup: Optional[int] = None,
) -> Dict[Tuple[Hashable, str], SimulationResult]:
    """Run ``{point: config}`` on every benchmark: ``{(point, gpu): result}``
    (:func:`repro.sweep.jobs.job` picks the co-runner and windows)."""
    return simulate(
        {
            (point, gpu): job(cfg, gpu, cycles, warmup)
            for point, cfg in configs.items()
            for gpu in benchmarks
        }
    )


def dr_over_baseline(
    pairs: Mapping[str, Tuple[SystemConfig, SystemConfig]],
    benchmarks: Sequence[str],
    cycles: Optional[int] = None,
    warmup: Optional[int] = None,
) -> Dict[str, List[Tuple[SimulationResult, SimulationResult]]]:
    """Run ``{point: (baseline config, DR config)}`` on every benchmark:
    per point, one ``(baseline result, DR result)`` pair per benchmark."""
    results = simulate_configs(
        {(point, i): cfg for point, cfgs in pairs.items()
         for i, cfg in enumerate(cfgs)},
        benchmarks, cycles, warmup,
    )
    return {
        point: [(results[((point, 0), gpu)], results[((point, 1), gpu)])
                for gpu in benchmarks]
        for point in pairs
    }


def over_reference(
    raw: Mapping[Tuple[Hashable, str], SimulationResult],
    ref: Hashable,
    columns: Mapping[str, Hashable],
    benchmarks: Sequence[str],
) -> List[Row]:
    """Per benchmark of :func:`simulate_configs` output, each design point's
    GPU IPC over the ``ref`` point's: ``{column: point}`` names the
    columns.  A benchmark whose reference measured no IPC is left out."""
    rows = []
    for gpu in benchmarks:
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


def mechanism_sweep(
    benchmarks: Sequence[str],
    n_mixes: Optional[int] = None,
    cycles: Optional[int] = None,
    warmup: Optional[int] = None,
    mechanisms: Sequence[str] = MECHANISMS,
    jobs: Optional[int] = None,
) -> Dict[Tuple[str, str, str], SimulationResult]:
    """Simulate every (GPU bench, CPU co-runner, mechanism) triple.

    The sweep behind Figures 10-14 and the energy study, keyed
    ``(gpu, cpu, mechanism)``; a view over :func:`simulate`'s memo, so
    those figures share one set of simulations (``n_mixes`` defaults to
    :func:`repro.sweep.jobs.default_mixes`, as theirs does).
    """
    specs = mechanism_jobs(
        benchmarks, n_mixes or default_mixes(), cycles, warmup, mechanisms
    )
    return simulate({spec.label: spec for spec in specs}, jobs=jobs)


def mechanism_groups(
    benchmarks: Sequence[str],
    n_mixes: Optional[int] = None,
    cycles: Optional[int] = None,
    warmup: Optional[int] = None,
    by_cpu: bool = False,
) -> Dict[str, List[Dict[str, SimulationResult]]]:
    """:func:`mechanism_sweep` as ``{benchmark: [{mechanism: result}, ...]}``,
    one dict per (GPU, CPU) mix, grouped by GPU benchmark in ``benchmarks``
    order or, with ``by_cpu``, by CPU co-runner in name order."""
    n_mixes = n_mixes or default_mixes()
    sweep = mechanism_sweep(benchmarks, n_mixes, cycles, warmup)
    groups: Dict[str, List[Dict[str, SimulationResult]]] = defaultdict(list)
    for gpu in benchmarks:
        for cpu in cpu_corunners(gpu, n_mixes):
            groups[cpu if by_cpu else gpu].append(
                {mech: sweep[(gpu, cpu, mech)] for mech in MECHANISMS}
            )
    return dict(sorted(groups.items()) if by_cpu else groups)


def clear_sweep_cache() -> None:
    """Drop memoised results (tests use this to force fresh simulations)."""
    _RESULTS.clear()
