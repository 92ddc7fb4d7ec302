"""The ``python -m repro sweep`` commands.

* ``list``    — enumerate the sweep's jobs, their keys and cache state
* ``run``     — execute the sweep (``--jobs N`` workers; cached results
  are reused, so an interrupted run resumes where it stopped when it is
  run again; ``--force`` recomputes everything)
* ``status``  — cached/missing breakdown for the sweep + cache totals
* ``clean``   — delete every cache entry

Examples::

    python -m repro sweep run --jobs 4                  # full Fig. 10 sweep
    python -m repro sweep run --jobs 2 --benchmarks HS,SC
    python -m repro sweep list --mechanisms baseline,dr
    python -m repro sweep status

The selection flags (``--benchmarks``, ``--n-mixes``, ``--mechanisms``,
``--cycles``, ``--warmup``) describe the same (GPU benchmark x CPU
co-runner x mechanism) cross product Figures 10-14 read; defaults
regenerate the Fig. 10 sweep.  The cache lives in ``--cache-dir``
(default: ``$REPRO_SWEEP_CACHE`` or ``.repro_sweep_cache``).
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time
from typing import List

from repro.cli import add_command, add_options, emit
from repro.sweep.cache import ResultCache, default_cache_dir
from repro.sweep.jobs import JobSpec, default_benchmarks, mechanism_jobs
from repro.sweep.runner import JobOutcome, SweepRunner


def _specs_from_args(args) -> List[JobSpec]:
    benchmarks = args.benchmarks.split(",") if args.benchmarks else None
    if benchmarks is None and args.subset:
        benchmarks = default_benchmarks(subset=args.subset)
    mechanisms = args.mechanisms.split(",") if args.mechanisms else None
    specs = mechanism_jobs(
        benchmarks=benchmarks,
        n_mixes=args.n_mixes,
        cycles=args.cycles,
        warmup=args.warmup,
        mechanisms=mechanisms,
    )
    if args.seed is not None:
        specs = [s.reseeded(args.seed) for s in specs]
    return specs


def _cache_from_args(args) -> ResultCache:
    return ResultCache(args.cache_dir or default_cache_dir())


def _progress_log_path(args, cache: ResultCache) -> str:
    return args.progress_log or str(cache.root / "progress.jsonl")


class ProgressLog:
    """Append-only JSONL log of sweep-run progress.

    One ``start`` marker per ``sweep run``, one ``job`` line per finished
    job (key, state, wall time, attempts) flushed as it lands, and a
    final ``end``/``interrupted`` marker — so a long sweep is observable
    from another shell (``sweep status`` summarises the latest segment)
    and a crashed one leaves evidence of where it stopped.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        # the default location is inside the cache dir, which a fresh
        # run has not created yet
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        self._fh = open(path, "a")

    def write(self, rec: dict) -> None:
        rec = {"ts": round(time.time(), 3), **rec}
        self._fh.write(json.dumps(rec, sort_keys=True) + "\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()


def _read_progress(path: str) -> List[dict]:
    """Records of the most recent run segment (after the last ``start``)."""
    segment: List[dict] = []
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except ValueError:
                    continue  # torn tail line from a crashed writer
                if rec.get("rec") == "start":
                    segment = [rec]
                else:
                    segment.append(rec)
    except OSError:
        return []
    return segment


def _segment_end(segment: List[dict]):
    """The marker record that closed a run segment, or None while it runs."""
    return next(
        (r for r in segment if r.get("rec") in ("end", "interrupted")), None
    )


def _summarize_progress(path: str, segment: List[dict]) -> str:
    if not segment:
        return f"progress: no progress log at {path}"
    start = segment[0] if segment[0].get("rec") == "start" else {}
    jobs = [r for r in segment if r.get("rec") == "job"]
    end = _segment_end(segment)
    total = start.get("total", max((r.get("total", 0) for r in jobs), default=0))
    counts: dict = {}
    retried = 0
    wall = 0.0
    for r in jobs:
        counts[r.get("status", "?")] = counts.get(r.get("status", "?"), 0) + 1
        if r.get("attempts", 1) > 1:
            retried += 1
        wall += r.get("wall_time_s", 0.0)
    simulated = counts.get("ok", 0)
    state = "running"
    if end is not None:
        state = ("finished in {:.1f}s".format(end.get("wall_time_s", 0.0))
                 if end["rec"] == "end" else "interrupted")
    by_status = ", ".join(f"{n} {s}" for s, n in sorted(counts.items()))
    text = (f"last run: {len(jobs)}/{total} job(s) done "
            f"({by_status or 'none'}) — {state}")
    if simulated:
        text += (f"\n          {wall:.1f}s simulation time, "
                 f"{wall / simulated:.2f}s/job, {retried} job(s) retried")
    return text


def _cmd_list(args) -> int:
    specs = _specs_from_args(args)
    cache = _cache_from_args(args)
    print(f"{len(specs)} job(s); cache: {cache.root}")
    for spec in specs:
        state = "cached" if cache.contains(spec.key()) else "missing"
        print(f"  {spec.key()[:16]}  {state:7s}  {spec.describe()}"
              f"  cycles={spec.cycles} warmup={spec.warmup}")
    return 0


def _cmd_status(args) -> int:
    specs = _specs_from_args(args)
    cache = _cache_from_args(args)
    cached = sum(1 for s in specs if cache.contains(s.key()))
    total_entries = sum(1 for _ in cache.keys())
    log_path = _progress_log_path(args, cache)
    segment = _read_progress(log_path)
    end = _segment_end(segment)
    emit(args, {
        "sweep": {
            "total": len(specs),
            "cached": cached,
            "to_run": len(specs) - cached,
        },
        "cache": {
            "dir": str(cache.root),
            "entries": total_entries,
            "size_bytes": cache.size_bytes(),
        },
        "last_run": {
            "jobs_done": sum(1 for r in segment if r.get("rec") == "job"),
            "state": (
                "none" if not segment
                else "running" if end is None
                else end["rec"]
            ),
        },
    }, lambda: (
        f"sweep:   {cached}/{len(specs)} job(s) cached, "
        f"{len(specs) - cached} to run\n"
        f"cache:   {cache.root} — {total_entries} entr(ies), "
        f"{cache.size_bytes() / 1024:.1f} KiB\n"
        + _summarize_progress(log_path, segment)
    ))
    return 0


def _cmd_clean(args) -> int:
    cache = _cache_from_args(args)
    n = cache.clear()
    print(f"removed {n} cache entr(ies) from {cache.root}")
    return 0


def _sigterm_to_interrupt(signum, frame):
    raise KeyboardInterrupt


def _cmd_run(args) -> int:
    # treat SIGTERM like ^C so `kill` leaves a resumable cache behind
    # (non-interactive shells start background jobs with SIGINT ignored,
    # so CI drives the interrupt path with SIGTERM)
    try:
        signal.signal(signal.SIGTERM, _sigterm_to_interrupt)
    except ValueError:  # pragma: no cover - non-main thread
        pass
    specs = _specs_from_args(args)
    cache = _cache_from_args(args)
    plog = ProgressLog(_progress_log_path(args, cache))

    def progress(outcome: JobOutcome, done: int, total: int) -> None:
        mark = {"ok": "ok    ", "cached": "cached"}.get(
            outcome.status, outcome.status
        )
        print(f"[{done}/{total}] {mark}  {outcome.spec.describe()}"
              + (f"  {outcome.wall_time_s:.2f}s" if outcome.status == "ok"
                 else ""),
              flush=True)
        plog.write({
            "rec": "job",
            "key": outcome.key,
            "label": list(outcome.spec.label) or [outcome.spec.describe()],
            "status": outcome.status,
            "wall_time_s": round(outcome.wall_time_s, 4),
            "attempts": outcome.attempts,
            "done": done,
            "total": total,
        })

    runner = SweepRunner(
        cache=cache,
        jobs=args.jobs,
        max_retries=args.retries,
        use_cache=not args.force,
        progress=progress,
    )
    plog.write({
        "rec": "start",
        "total": len(specs),
        "workers": runner.jobs,
    })
    t0 = time.perf_counter()
    interrupted = False
    try:
        outcomes = runner.run(specs)
    except KeyboardInterrupt:
        print("\ninterrupted — completed jobs are cached; "
              "run again to continue", file=sys.stderr)
        interrupted = True
        outcomes = {}
    finally:
        runner.close()
    wall = time.perf_counter() - t0
    plog.write({
        "rec": "interrupted" if interrupted else "end",
        "wall_time_s": round(wall, 3),
    })
    plog.close()

    if not interrupted:
        counts = {"ok": 0, "cached": 0, "failed": 0}
        for out in outcomes.values():
            counts[out.status] = counts.get(out.status, 0) + 1
        simulated = [o for o in outcomes.values() if o.status == "ok"]
        rate = len(simulated) / wall if wall > 0 else 0.0
        manifest = {
            "workers": runner.jobs,
            "wall_time_s": round(wall, 3),
            "totals": counts,
            "cache_dir": str(cache.root),
            "jobs": [o.as_dict() for o in outcomes.values()],
        }
        emit(args, manifest,
             f"{len(outcomes)} job(s): {counts['ok']} simulated, "
             f"{counts['cached']} from cache, {counts['failed']} failed "
             f"in {wall:.1f}s ({rate:.2f} jobs/s)")
        if counts["failed"]:
            return 1
    return 130 if interrupted else 0


def _add_sweep_options(p) -> None:
    add_options(p, "benchmarks")
    p.add_argument("--subset", type=int, default=None,
                   help="representative benchmark subset size "
                        "(default: all 11 benchmarks)")
    p.add_argument("--n-mixes", type=int, default=1,
                   help="Table II CPU co-runners per GPU benchmark")
    p.add_argument("--mechanisms", default=None,
                   help="comma-separated subset of baseline,rp,dr")
    add_options(p, "cycles", "warmup", "seed", "cache-dir",
                cache_dir=dict(help="result cache directory (default: "
                                    "$REPRO_SWEEP_CACHE or .repro_sweep_cache)"))


def register(sub) -> None:
    """Add the ``sweep`` group's commands to the subparsers action ``sub``."""
    _add_sweep_options(
        add_command(sub, "list", _cmd_list, "enumerate jobs and cache state"))

    run_p = add_command(sub, "run", _cmd_run, "execute the sweep")
    _add_sweep_options(run_p)
    add_options(run_p, "jobs")
    run_p.add_argument("--force", action="store_true",
                       help="ignore cached results and recompute everything")
    run_p.add_argument("--retries", type=int, default=2,
                       help="retry rounds for failed jobs (default 2)")
    add_options(run_p, "out", out=dict(help="write a JSON run manifest here"))

    status_p = add_command(sub, "status", _cmd_status,
                           "cached/missing breakdown")
    _add_sweep_options(status_p)
    add_options(status_p, "format")
    for p in (run_p, status_p):
        p.add_argument("--progress-log", default=None,
                       help="per-job JSONL progress log "
                            "(default: <cache-dir>/progress.jsonl)")

    _add_sweep_options(
        add_command(sub, "clean", _cmd_clean, "delete every cache entry"))
