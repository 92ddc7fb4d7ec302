"""The sweep runner: fan simulation jobs out over worker processes.

Execution model:

* Specs are deduplicated by content key, then partitioned into cache
  hits (returned instantly) and pending jobs.
* Pending jobs run on one *warm* ``ProcessPoolExecutor`` (``jobs``
  workers) that the runner keeps alive across retry rounds — and across
  ``run()`` calls — so process start-up and module imports are paid once
  per worker, not once per round.  With one worker — or a single job —
  jobs run inline in this process, which is also the reference path the
  determinism tests compare against.
* One future carries one job.  A job is a whole simulation (>= 0.27 s at
  the repo benchmark's shortest windows) and a future's round trip is
  about a millisecond, so there is nothing for a coarser grain to
  amortise, and a job succeeds, fails, persists and reports on its own
  by construction.  The inline and the pool path settle a job through
  the same attempt function.
* The pool uses the ``fork`` start method where the platform offers it
  (workers inherit the parent's already-imported modules for free) and
  falls back to ``spawn`` elsewhere, where unpickling the first task
  imports this module and with it the simulator.
* Each result is persisted to the :class:`ResultCache` *as it arrives*,
  so an interrupted sweep resumes from exactly the jobs that finished.
* Failed jobs are retried in later rounds; the first retry runs
  immediately (a fresh failure has not yet demonstrated persistence —
  deterministic failures should not serialise behind a pointless sleep)
  and only failures that survive a retry round trigger the capped
  exponential backoff.  A job that exhausts its attempts is reported as
  ``failed`` without aborting the rest of the sweep.  A worker process
  dying (``BrokenProcessPool``) fails only the jobs in flight; the
  pool is rebuilt before the next retry round.

Simulations are deterministic functions of their :class:`JobSpec`, so
the parallel and inline paths produce bit-identical
:class:`SimulationResult` payloads — the test suite enforces this.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.sim.metrics import SimulationResult
from repro.sweep.cache import ENV_CACHE_DIR, ResultCache
from repro.sweep.jobs import JobSpec, dedupe

ENV_JOBS = "REPRO_SWEEP_JOBS"


def stall_shares(
    breakdown: Dict[str, Dict[str, int]]
) -> Dict[str, Dict[str, float]]:
    """Normalise a stall breakdown into per-group class *shares*.

    ``{"CPU": {"credit": 0.61, ...}, ...}`` — each group's classes sum
    to exactly 1.0 (4 decimal places, largest-remainder apportionment),
    so manifests carry a headline "where did the blocked cycles go"
    answer without absolute cycle counts that depend on window length.
    Empty groups (and an empty breakdown, the untraced case) are
    dropped.
    """
    out: Dict[str, Dict[str, float]] = {}
    for group, classes in breakdown.items():
        total = sum(classes.values())
        if total <= 0:
            continue
        # Independent rounding lets a group sum to 0.9999/1.0001, so
        # apportion 10000 fixed-point units instead: floor each share,
        # then hand the leftover units to the largest remainders
        # (ties broken by class name, keeping the result deterministic).
        names = sorted(classes)
        units: List[int] = []
        remainders: List[float] = []
        for name in names:
            exact = classes[name] * 10000.0 / total
            floor = int(exact)
            units.append(floor)
            remainders.append(exact - floor)
        leftover = 10000 - sum(units)
        order = sorted(
            range(len(names)), key=lambda i: (-remainders[i], names[i])
        )
        for i in order[:leftover]:
            units[i] += 1
        out[group] = {
            name: units[i] / 10000.0 for i, name in enumerate(names)
        }
    return out


def default_jobs() -> int:
    """Worker count when unspecified (``REPRO_SWEEP_JOBS``, default 1).

    A malformed value (``REPRO_SWEEP_JOBS=two``) warns once on stderr
    and falls back to 1 instead of crashing the whole sweep.
    """
    raw = os.environ.get(ENV_JOBS)
    if raw is None:
        return 1
    try:
        return max(1, int(raw))
    except ValueError:
        print(
            f"warning: ignoring {ENV_JOBS}={raw!r} (not an integer); using 1",
            file=sys.stderr,
        )
        return 1


def pool_context() -> multiprocessing.context.BaseContext:
    """The multiprocessing context worker pools are built from.

    ``fork`` where the platform offers it: forked workers inherit the
    parent's imported modules (the simulator import tax is already
    paid) and start in milliseconds.  Elsewhere (Windows, macOS
    pythons configured spawn-only) this falls back to ``spawn``, where
    a worker imports the simulator once, unpickling its first task.
    """
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def _worker_ready(delay_s: float) -> int:
    """Warm-up barrier task: occupy one worker briefly, report its pid."""
    time.sleep(delay_s)
    return os.getpid()


def simulate_job(spec_dict: Dict[str, Any]) -> Dict[str, Any]:
    """Worker entry point: run one job and return its serialised result.

    The wire form of :meth:`JobSpec.run`: takes and returns plain dicts
    so the payload pickles cheaply and the parent never depends on
    worker-side object identity.
    """
    spec = JobSpec.from_dict(spec_dict)
    t0 = time.perf_counter()
    result = spec.run()
    return {
        "result": result.to_dict(),
        "wall_time_s": time.perf_counter() - t0,
    }


@dataclass
class JobOutcome:
    """Execution record of one deduplicated job."""

    spec: JobSpec
    key: str
    status: str = "pending"      # "ok" | "cached" | "failed"
    result: Optional[SimulationResult] = None
    wall_time_s: float = 0.0
    attempts: int = 0
    error: str = ""

    def as_dict(self) -> Dict[str, Any]:
        d = {
            "key": self.key,
            "label": list(self.spec.label) or [self.spec.describe()],
            "gpu": self.spec.gpu,
            "cpu": self.spec.cpu,
            "cycles": self.spec.cycles,
            "warmup": self.spec.warmup,
            "backend": self.spec.backend,
            "status": self.status,
            "wall_time_s": round(self.wall_time_s, 4),
            "attempts": self.attempts,
        }
        if self.error:
            d["error"] = self.error
        if self.result is not None:
            # headline + histogram-derived tail metrics so manifests are
            # usable without re-opening the cache
            d["metrics"] = {
                "cpu_latency_avg": round(self.result.cpu_latency_avg, 2),
                "cpu_latency_p50": self.result.cpu_latency_p50,
                "cpu_latency_p95": self.result.cpu_latency_p95,
                "cpu_latency_p99": self.result.cpu_latency_p99,
                "gpu_latency_p99": self.result.gpu_latency_p99,
                "mem_blocking_rate": round(self.result.mem_blocking_rate, 4),
            }
            if self.result.fault_retransmits or self.result.fault_lost:
                d["metrics"]["fault_retransmits"] = self.result.fault_retransmits
                d["metrics"]["fault_lost"] = self.result.fault_lost
                d["metrics"]["fault_recovery_p99"] = self.result.fault_recovery_p99
            shares = stall_shares(self.result.stall_breakdown)
            if shares:
                d["metrics"]["stall_shares"] = shares
            if self.result.telemetry_metrics:
                d["metrics"]["telemetry"] = dict(self.result.telemetry_metrics)
        return d


class SweepError(RuntimeError):
    """Raised by :func:`run_sweep` when jobs exhaust their retries."""

    def __init__(self, failed: List[JobOutcome]) -> None:
        self.failed = failed
        lines = "; ".join(
            f"{o.spec.describe()}: {o.error}" for o in failed[:5]
        )
        if len(failed) > 5:
            lines += f" (and {len(failed) - 5} more)"
        super().__init__(f"{len(failed)} sweep job(s) failed: {lines}")


ProgressFn = Callable[[JobOutcome, int, int], None]


class SweepRunner:
    """Run :class:`JobSpec` batches with caching, retries and telemetry.

    The runner owns a warm worker pool: created lazily on the first
    parallel round, reused across retry rounds and subsequent ``run()``
    calls, torn down by :meth:`close` (or the context-manager exit).
    ``cache`` is a :class:`ResultCache`, a directory, ``None`` (keep
    nothing) or ``"auto"`` — persist only when ``REPRO_SWEEP_CACHE`` is
    set, which keeps plain library calls hermetic.  ``worker`` and
    ``backoff_base_s`` are test seams, not something a caller tunes.
    """

    def __init__(
        self,
        cache: Union[ResultCache, str, Path, None] = None,
        jobs: Optional[int] = None,
        max_retries: int = 2,
        backoff_base_s: float = 0.25,
        backoff_cap_s: float = 4.0,
        worker: Callable[[Dict[str, Any]], Dict[str, Any]] = simulate_job,
        use_cache: bool = True,
        progress: Optional[ProgressFn] = None,
    ) -> None:
        if cache == "auto":
            cache = ResultCache() if os.environ.get(ENV_CACHE_DIR) else None
        elif cache is not None and not isinstance(cache, ResultCache):
            cache = ResultCache(cache)
        self.cache: Optional[ResultCache] = cache
        self.jobs = default_jobs() if jobs is None else max(1, int(jobs))
        self.max_retries = max(0, int(max_retries))
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.worker = worker
        self.use_cache = use_cache
        self.progress = progress
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_workers = 0
        #: pools built over this runner's lifetime — the warm-pool tests
        #: (and curious operators) read this; steady state is 1.
        self.pools_created = 0

    # -- pool lifecycle ---------------------------------------------------

    def _ensure_pool(self, workers: int) -> ProcessPoolExecutor:
        """The warm pool, (re)built only when absent or too small."""
        if self._pool is not None and self._pool_workers < workers:
            self._close_pool(wait=True)
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=workers, mp_context=pool_context()
            )
            self._pool_workers = workers
            self.pools_created += 1
        return self._pool

    def _close_pool(self, wait: bool = True, cancel: bool = False) -> None:
        if self._pool is None:
            return
        pool, self._pool, self._pool_workers = self._pool, None, 0
        pool.shutdown(wait=wait, cancel_futures=cancel)

    def warm(self, workers: Optional[int] = None) -> None:
        """Spin the pool up ahead of time (best-effort readiness barrier).

        Long campaigns and benchmarks call this so worker start-up
        happens before the first (timed) job.  Each barrier task sleeps
        briefly, which pushes the queue across all workers instead of
        letting the first-started worker drain it alone.
        """
        workers = self.jobs if workers is None else max(1, int(workers))
        if workers <= 1:
            return
        pool = self._ensure_pool(workers)
        for fut in [
            pool.submit(_worker_ready, 0.02) for _ in range(workers)
        ]:
            fut.result()

    def close(self) -> None:
        """Shut the warm pool down (idempotent)."""
        self._close_pool(wait=True)

    def __enter__(self) -> "SweepRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- public API -------------------------------------------------------

    def run(self, specs: Sequence[JobSpec]) -> Dict[str, JobOutcome]:
        """Execute every unique spec; outcomes keyed by content hash.

        Completed results are cached on disk the moment they arrive, so
        interrupting this call loses only in-flight jobs.
        """
        unique = dedupe(specs)
        outcomes = {s.key(): JobOutcome(spec=s, key=s.key()) for s in unique}
        total = len(unique)
        done = 0

        def landed(out: JobOutcome) -> None:
            nonlocal done
            done += 1
            if self.progress is not None:
                self.progress(out, done, total)

        def attempt(
            out: JobOutcome, payload_of: Callable[[], Dict[str, Any]]
        ) -> bool:
            """One attempt of one job, the same on both paths: take its
            payload (the inline call, a future's result), then persist
            and report it — or keep the error for the retry round."""
            out.attempts += 1
            try:
                payload = payload_of()
            except Exception as exc:  # noqa: BLE001 - retried, then surfaced
                out.error = f"{type(exc).__name__}: {exc}"
                return False
            self._complete(out, payload)
            landed(out)
            return True

        pending: List[JobOutcome] = []
        for out in outcomes.values():
            hit = (
                self.cache.get(out.key)
                if (self.use_cache and self.cache is not None)
                else None
            )
            if hit is not None:
                out.status = "cached"
                out.result = hit
                landed(out)
            else:
                pending.append(out)

        for round_no in range(1 + self.max_retries):
            if not pending:
                break
            if round_no >= 2:
                # round 1's pending came fresh from round 0, so the first
                # retry runs immediately — instant deterministic failures
                # should not serialise behind a sleep.  Only failures that
                # survived a retry round (carried over again) back off.
                time.sleep(self._backoff(round_no - 1))
            if self.jobs == 1 or len(pending) == 1:
                pending = [
                    out for out in pending
                    if not attempt(
                        out, lambda: self.worker(out.spec.to_dict())
                    )
                ]
            else:
                pending = self._run_pool(pending, attempt)
        for out in pending:
            out.status = "failed"
        return outcomes

    # -- internals --------------------------------------------------------

    def _backoff(self, round_no: int) -> float:
        return min(
            self.backoff_cap_s, self.backoff_base_s * (2 ** (round_no - 1))
        )

    def _complete(self, out: JobOutcome, payload: Dict[str, Any]) -> None:
        out.result = SimulationResult.from_dict(payload["result"])
        out.wall_time_s = float(payload.get("wall_time_s", 0.0))
        out.status = "ok"
        out.error = ""
        if self.cache is not None:
            self.cache.put(
                out.spec,
                out.result,
                meta={
                    "wall_time_s": out.wall_time_s,
                    "attempts": out.attempts,
                },
            )

    def _run_pool(
        self, pending: List[JobOutcome], attempt: Callable[..., bool]
    ) -> List[JobOutcome]:
        """One round on the warm pool, one future per job; returns the
        jobs that failed this round."""
        pool = self._ensure_pool(min(self.jobs, len(pending)))
        failures: List[JobOutcome] = []
        pool_broken = False
        try:
            futures = {
                pool.submit(self.worker, out.spec.to_dict()): out
                for out in pending
            }
            for fut in as_completed(futures):
                if not attempt(futures[fut], fut.result):
                    # its worker died (crash, lost pickle) or it raised
                    failures.append(futures[fut])
                    pool_broken |= isinstance(
                        fut.exception(), BrokenProcessPool
                    )
        except BaseException:
            # interrupt or pool breakage: everything persisted so far is
            # on disk; drop in-flight work and surface the exception
            self._close_pool(wait=False, cancel=True)
            raise
        if pool_broken:
            # a dead worker poisons the whole executor — rebuild so the
            # retry round (if any) starts from a healthy pool
            self._close_pool(wait=False, cancel=True)
        return failures


def run_sweep(
    specs: Sequence[JobSpec],
    jobs: Optional[int] = None,
    cache: Union[ResultCache, str, Path, None] = "auto",
    use_cache: bool = True,
    max_retries: int = 2,
    progress: Optional[ProgressFn] = None,
) -> Dict[str, SimulationResult]:
    """Run a batch of specs and return ``{key: SimulationResult}``.

    ``cache="auto"`` (the default) persists to disk only when
    ``REPRO_SWEEP_CACHE`` is set, keeping plain library calls hermetic;
    pass a directory (or :class:`ResultCache`) to force persistence, or
    ``None`` to disable it.  Raises :class:`SweepError` if any job still
    fails after retries.
    """
    with SweepRunner(
        cache=cache,
        jobs=jobs,
        max_retries=max_retries,
        use_cache=use_cache,
        progress=progress,
    ) as runner:
        outcomes = runner.run(specs)
    failed = [o for o in outcomes.values() if o.status == "failed"]
    if failed:
        raise SweepError(failed)
    return {k: o.result for k, o in outcomes.items()}
