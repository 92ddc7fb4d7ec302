"""Parallel, cached, resumable experiment execution.

The sweep subsystem turns the (GPU benchmark x CPU co-runner x
mechanism) cross products behind the paper's figures into explicit
:class:`JobSpec` batches, runs them over a process pool, and persists
every result to a content-addressed on-disk cache so re-runs and
interrupted sweeps resume for free.  ``python -m repro sweep`` exposes
it on the command line; the figure modules and the validation grids
enumerate their jobs with :func:`repro.sweep.jobs.job` and hand them to
:func:`run_sweep` / :class:`SweepRunner`.
"""

from repro.sweep.cache import (
    DEFAULT_CACHE_DIRNAME,
    ENV_CACHE_DIR,
    ResultCache,
    default_cache_dir,
)
from repro.sweep.jobs import (
    CODE_VERSION,
    JobSpec,
    dedupe,
    mechanism_jobs,
)
from repro.sweep.runner import (
    ENV_JOBS,
    JobOutcome,
    SweepError,
    SweepRunner,
    default_jobs,
    pool_context,
    run_sweep,
    simulate_job,
)

__all__ = [
    "CODE_VERSION",
    "DEFAULT_CACHE_DIRNAME",
    "ENV_CACHE_DIR",
    "ENV_JOBS",
    "JobOutcome",
    "JobSpec",
    "ResultCache",
    "SweepError",
    "SweepRunner",
    "dedupe",
    "default_cache_dir",
    "default_jobs",
    "mechanism_jobs",
    "pool_context",
    "run_sweep",
    "simulate_job",
]
