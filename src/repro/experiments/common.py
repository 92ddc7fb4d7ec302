"""Shared infrastructure for the per-figure experiment modules.

Each ``figNN_*`` module exposes ``run(...) -> ExperimentResult`` that
regenerates one paper figure/table: same rows, same normalisations.
Every module runs its simulations the same way: enumerate one
:class:`~repro.sweep.JobSpec` per point the figure needs
(:func:`repro.sweep.jobs.job`, the rule that picks the co-runner and the
window; :func:`simulate_configs` and :func:`dr_over_baseline` call it for
the two common shapes), hand the whole batch to :func:`simulate`, tabulate.
:func:`simulate` keeps one process-level memo indexed by
``JobSpec.key()`` and passes only the specs it has not seen to a single
:func:`repro.sweep.run_sweep` call, so a spec is simulated once per
process whichever figure asks first (the unmodified baseline of Figs. 5,
7, 15, 16 and the ablations is one simulation), and every figure gets the
runner's process-level parallelism (``REPRO_SWEEP_JOBS``) and on-disk
result cache (``REPRO_SWEEP_CACHE``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from repro.config.system import MECHANISMS, SystemConfig
from repro.sim.metrics import SimulationResult
from repro.sweep import JobSpec, mechanism_jobs, run_sweep
from repro.sweep.jobs import default_mixes, job


@dataclass
class ExperimentResult:
    """Output of one experiment: rows, a rendered table and raw data."""

    name: str
    rows: List[Tuple[str, Mapping[str, float]]]
    text: str
    data: Dict = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.text


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
    """Run ``{point: config}`` on every benchmark: ``{(point, gpu): result}``.

    The shape of a config study — a handful of design points, each
    evaluated on the same GPU benchmarks (see
    :func:`repro.sweep.jobs.job` for the co-runner and windows).
    """
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
    """Run ``{point: (baseline config, DR config)}`` on every benchmark.

    The shape of every "each design point is its own baseline" study
    (Figs. 16-19, node mix, ablations): returns, per point, one
    ``(baseline result, DR result)`` pair per benchmark, in order.
    """
    configs = {}
    for point, (base_cfg, dr_cfg) in pairs.items():
        configs[(point, "base")] = base_cfg
        configs[(point, "dr")] = dr_cfg
    results = simulate_configs(configs, benchmarks, cycles, warmup)
    return {
        point: [
            (results[((point, "base"), gpu)], results[((point, "dr"), gpu)])
            for gpu in benchmarks
        ]
        for point in pairs
    }


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


def clear_sweep_cache() -> None:
    """Drop memoised results (tests use this to force fresh simulations)."""
    _RESULTS.clear()
