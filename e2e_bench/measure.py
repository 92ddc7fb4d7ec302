"""Run one workload and turn its reps into the benchmark's metrics.

Two kinds of run, never mixed: the *end-to-end* run (``--trace 0``)
times the untraced body and nothing else; the *traced* run
(``--trace 1``) alternates untraced and traced reps, takes every
per-layer number from them and reports what tracing cost.  Every
simulation, sweep job and check counts as one attempted operation.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Dict, List

from repro.sim.metrics import SimulationResult
from repro.sweep import ResultCache

from calib import Segments, quiet_seconds, spread, summary
from layers import layer_shares
from loads import (
    OUT_DIR,
    PAPER_DR_GPU_SPEEDUP,
    Rep,
    SweepFig10,
    make_workload,
)

SRC_DIR = Path(__file__).resolve().parent.parent / "src"
#: warm passes over the cached sweep in the traced run
WARM_PASSES = 100


class Ops:
    """Operation accounting behind ``attempted`` / ``failed``."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def rep(self, rep: Rep) -> Rep:
        self.attempted += rep.sims + rep.checks
        self.failed += len(rep.failures)
        self.messages += rep.failures
        return rep

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(message)


def _reps_until(deadline_s: float, min_reps: int, make_rep) -> List:
    """Call ``make_rep`` until ``deadline_s`` seconds have gone by and at
    least ``min_reps`` calls were made."""
    out = []
    t0 = perf_counter()
    while len(out) < min_reps or perf_counter() - t0 < deadline_s:
        gc.collect()
        out.append(make_rep(len(out)))
    return out


def _same_digest(ops: Ops, name: str, what: str, reps: List[Rep], digest: str) -> None:
    for rep in reps:
        ops.check(
            rep.digest == digest,
            f"{name}: {what} gave stats_digest {rep.digest[:12]}, expected {digest[:12]}",
        )


def _peak_rss_mb() -> float:
    """This process plus its largest reaped child (a sweep worker; zero
    for the workloads that start none)."""
    kb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kb / 1024.0


# ---------------------------------------------------------------------------
# end-to-end run
# ---------------------------------------------------------------------------


def run_end_to_end(name: str, seed: int, seconds: float, smoke: bool) -> Dict:
    workload = make_workload(name, smoke)
    ops = Ops()
    digest = None
    if workload.discard_first:
        digest = ops.rep(workload.warmup_rep(seed)).digest
    reps = _reps_until(
        seconds, 2 if smoke else workload.min_reps, lambda i: ops.rep(workload.rep(seed))
    )
    if digest is None:
        digest = reps[0].digest
    _same_digest(ops, name, "a rep", reps, digest)

    quiet_s, per_rep_s = workload.body_seconds(reps)
    kcyc, hops = reps[0].kcycles, reps[0].flit_hops
    detail = {
        "sim_kcyc_per_s": _metric(kcyc / quiet_s, [kcyc / s for s in per_rep_s]),
        "host_ns_per_flit_hop": _metric(
            quiet_s * 1e9 / hops, [s * 1e9 / hops for s in per_rep_s]
        ),
        "setup_s": _metric(
            statistics.median(r.setup_s for r in reps), [r.setup_s for r in reps]
        ),
        "peak_rss_mb": _metric(_peak_rss_mb(), None),
    }
    return _result(name, seed, ops, digest, detail)


def _metric(value: float, per_rep) -> Dict:
    out = {"value": value}
    if per_rep:
        out.update(summary(per_rep))
    return out


def _result(name: str, seed: int, ops: Ops, digest: str, detail: Dict) -> Dict:
    return {
        "workload": name,
        "seed": seed,
        "stats_digest": digest,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "fail_share": ops.failed / ops.attempted,
        "failures": ops.messages,
        "metrics": detail,
    }


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------


def run_traced(name: str, seed: int, seconds: float, smoke: bool) -> Dict:
    workload = make_workload(name, smoke)
    if isinstance(workload, SweepFig10):
        return _traced_sweep(workload, seed, seconds, smoke)
    ops = Ops()
    digest = ops.rep(workload.warmup_rep(seed)).digest
    # a telemetry workload also times its telemetry-off twin
    off = workload.twin()
    gen2_before = gc.get_stats()[2]["collections"]
    plain: List[Rep] = []
    traced: List[Rep] = []
    twin: List[Rep] = []  # telemetry-off reps of a telemetry workload

    def one_round(_i):
        if off is not None:
            twin.append(ops.rep(off.rep(seed)))
        plain.append(ops.rep(workload.rep(seed)))
        gc.collect()
        traced.append(ops.rep(workload.rep(seed, traced=True)))

    _reps_until(seconds, 1 if smoke else 2, one_round)
    gen2 = gc.get_stats()[2]["collections"] - gen2_before
    _same_digest(ops, name, "a rep", plain + twin, digest)
    # the benchmark's loop must not have drifted from HeterogeneousSystem.step
    _same_digest(ops, name, "the traced rep", traced, digest)

    # the least-disturbed traced rep gives the per-layer numbers, so the
    # shares are one consistent account and sum to one
    best = min(traced, key=lambda r: sum(r.seg.normalised()))
    values = _layer_values(plain, traced, best)
    if twin:
        values["telemetry.overhead_pct"] = 100.0 * (
            quiet_seconds([r.seg for r in plain]) / quiet_seconds([r.seg for r in twin])
            - 1.0
        )
    values["host.gc_gen2_collections"] = gen2
    values["system.import_s"] = _import_seconds(1 if smoke else 3)
    shares = sum(
        values[k]
        for k in ("fabric.share", "gpu.share", "cpu.share", "memnode.share",
                  "telemetry.share", "trace.unattributed_share")
    )
    ops.check(abs(shares - 1.0) <= 0.01, f"{name}: layer shares sum to {shares:.4f}")

    _write_trace(name, seed, {"spans": best.recorder.records(_run_factors(best.seg))})
    return _result(name, seed, ops, digest, {k: {"value": v} for k, v in values.items()})


def _run_factors(seg: Segments) -> List[float]:
    """Normalisation factors of the segments that are trace windows."""
    return [f for f, label in zip(seg.factors(), seg.labels) if label == "run"]


def _layer_values(plain: List[Rep], traced: List[Rep], rep: Rep) -> Dict[str, float]:
    """Per-layer metrics of a single-simulation workload; spans from the
    traced rep ``rep``."""
    recorder = rep.recorder
    sec = recorder.layer_seconds(_run_factors(rep.seg))
    shares = layer_shares(sec)
    cycles = rep.kcycles * 1000.0
    us_per_cyc = lambda s: s * 1e6 / cycles
    win, tot = rep.window, rep.totals
    ratio = lambda a, b: a / b if b else 0.0
    fabric_self = shares["fabric"] * sec["total"]
    plain_segs = [r.seg for r in plain]
    spins = [s for r in plain for s in r.seg.spin_s]
    v = {
        "fabric.self_us_per_cyc": us_per_cyc(fabric_self),
        "fabric.share": shares["fabric"],
        "fabric.ns_per_flit_hop": fabric_self * 1e9 / rep.flit_hops,
        "fabric.flit_hops": win["noc.req_flits_routed"] + win["noc.rep_flits_routed"],
        "fabric.req_packets": win["noc.req_packets"],
        "fabric.rep_packets": win["noc.rep_packets"],
        "fabric.inflight_flits_mean": recorder.mean_in_flight(),
        "fabric.backend": 1.0 if rep.extra["backend"] == "vector" else 0.0,
        "trace.overhead_pct": 100.0
        * (
            quiet_seconds([r.seg for r in traced], lambda l: l == "run")
            / quiet_seconds(plain_segs, lambda l: l == "run")
            - 1.0
        ),
        "trace.unattributed_share": shares["unattributed"],
        "host.raw_wall_s": statistics.median(sum(r.seg.wall_s) for r in plain),
        "host.calib_s_p50": statistics.median(spins),
        "host.calib_spread": spread(spins),
        "system.build_s": statistics.median(r.setup_s for r in plain + traced),
    }
    for layer in ("gpu", "cpu", "memnode"):
        v[f"{layer}.step_us_per_cyc"] = us_per_cyc(sec[f"{layer}.step"])
        v[f"{layer}.recv_us_per_cyc"] = us_per_cyc(sec[f"{layer}.recv"])
        v[f"{layer}.share"] = shares[layer]
    v["telemetry.on_cycle_us_per_cyc"] = us_per_cyc(sec["telemetry.on_cycle"])
    v["telemetry.share"] = shares["telemetry"]
    if not tot:
        return v  # a bare fabric: no endpoints, no counters of theirs
    sims = rep.sims
    v.update(
        {
            "gpu.us_per_mem_op": ratio(
                (sec["gpu.step"] + sec["gpu.recv"]) * 1e6, tot["gpu.mem_ops"]
            ),
            "gpu.insts": win["gpu.insts"],
            "gpu.l1_miss_rate": ratio(win["gpu.l1_miss_ops"], win["gpu.reads"]),
            "gpu.issue_stalls": win["gpu.issue_stalls"],
            "gpu.frq_remote_hits": win["gpu.frq_remote_hits"],
            "gpu.frq_delayed_hits": win["gpu.frq_delayed_hits"],
            "gpu.frq_remote_misses": win["gpu.frq_remote_misses"],
            "cpu.stall_cycles": win["cpu.stall_cycles"],
            "cpu.latency_avg": ratio(win["cpu.total_latency"], win["cpu.replies"]),
            "memnode.requests": win["mem.requests"],
            "memnode.llc_hit_rate": ratio(
                win["llc.hits"], win["llc.hits"] + win["llc.misses"]
            ),
            "memnode.llc_stalled_cycles": win["llc.stalled"],
            "memnode.dram_row_hit_rate": ratio(win["dram.row_hits"], win["dram.served"]),
            "memnode.blocking_rate": ratio(
                win["mem.blocked_cycles"], win["mem.observed_cycles"]
            ),
            "memnode.delegations": win["mem.delegations"],
            "memnode.delegation_share": ratio(
                win["mem.delegations"], win["mem.delegatable_replies"]
            ),
            "telemetry.events": rep.extra["tel_events"],
            "telemetry.stall_records": rep.extra["tel_stalls"],
            "metrics.collect_us": quiet_seconds(plain_segs, lambda l: l == "collect")
            * 1e6
            / sims,
        }
    )
    return v


def _traced_sweep(workload: SweepFig10, seed: int, seconds: float, smoke: bool) -> Dict:
    """For the sweep the "trace" is the per-job ``JobOutcome`` records
    plus outside timings of ``JobSpec.key`` and ``ResultCache.put/get``."""
    ops = Ops()
    workload = dataclasses.replace(workload, warm_passes=5 if smoke else WARM_PASSES)
    reps = _reps_until(
        seconds, 1 if smoke else 2, lambda i: ops.rep(workload.rep(seed))
    )
    digest = reps[0].digest
    _same_digest(ops, workload.name, "a rep", reps, digest)

    quiet_s, _ = workload.body_seconds(reps)
    # job statistics come from the least-disturbed rep
    quiet = min(reps, key=lambda r: r.seg.wall_s[0])
    jobs = quiet.extra["jobs"]
    n = len(jobs)
    walls = sorted(j["wall_time_s"] for j in jobs)
    efficiency = quiet.extra["worker_cpu_s"] / (quiet.seg.wall_s[0] * workload.jobs)
    warm_s = min(r.extra["warm_s"] for r in reps)
    speedup = quiet.extra.get("dr_gpu_speedup", 0.0)
    spins = [s for r in reps for s in r.seg.spin_s]
    values = {
        "sweep.jobs_per_s": n / quiet_s,
        "sweep.warm_jobs_per_s": n * workload.warm_passes / warm_s,
        "sweep.worker_busy_s": sum(walls),
        "sweep.parallel_efficiency": efficiency,
        "sweep.pool_overhead_share": 1.0 - efficiency,
        "sweep.job_wall_s_p50": statistics.median(walls),
        "sweep.job_wall_s_max": walls[-1],
        "sweep.retries": sum(j["attempts"] - 1 for j in jobs),
        "sweep.failed_jobs": sum(j["status"] != "ok" for j in jobs),
        "sweep.dr_gpu_speedup": speedup,
        "sweep.paper_gap_pct": 100.0
        * abs(speedup - PAPER_DR_GPU_SPEEDUP)
        / PAPER_DR_GPU_SPEEDUP,
        "fabric.flit_hops": quiet.flit_hops,
        "host.raw_wall_s": statistics.median(r.seg.wall_s[0] for r in reps),
        "host.calib_s_p50": statistics.median(spins),
        "host.calib_spread": spread(spins),
        "system.build_s": statistics.median(r.setup_s for r in reps),
        "system.import_s": _import_seconds(1 if smoke else 3),
    }
    values.update(_cache_timings(workload.specs(seed), workload.cycles))
    _write_trace(workload.name, seed, {"jobs": [r.extra["jobs"] for r in reps]})
    return _result(
        workload.name, seed, ops, digest, {k: {"value": v} for k, v in values.items()}
    )


def _cache_timings(specs, cycles: int) -> Dict[str, float]:
    """Normalised µs per job of ``JobSpec.key``, ``ResultCache.put`` and
    ``ResultCache.get``, called from outside on a scratch directory."""
    result = SimulationResult(cycles=cycles, counters={"cycle": cycles})
    passes = 5
    with tempfile.TemporaryDirectory(prefix="cache-probe-", dir=OUT_DIR) as scratch:
        cache = ResultCache(scratch)
        segs = []
        for _ in range(passes):
            seg = Segments()
            keys = seg.timed("key", lambda: [s.key() for s in specs])
            seg.timed("put", lambda: [cache.put(s, result) for s in specs])
            seg.timed("get", lambda: [cache.get(k) for k in keys])
            segs.append(seg)
    per_job = lambda label: quiet_seconds(segs, lambda l: l == label) * 1e6 / len(specs)
    return {
        "sweep.key_us_per_job": per_job("key"),
        "sweep.cache_put_us_per_job": per_job("put"),
        "sweep.cache_get_us_per_job": per_job("get"),
    }


def _import_seconds(samples: int) -> float:
    """Median wall seconds of ``import repro.api`` in a fresh interpreter."""
    code = (
        "import sys,time;t=time.perf_counter();import repro.api;"
        "sys.stdout.write(repr(time.perf_counter()-t))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    return statistics.median(
        float(
            subprocess.run(
                [sys.executable, "-c", code], env=env, check=True,
                capture_output=True, text=True, timeout=120,
            ).stdout
        )
        for _ in range(samples)
    )


def _write_trace(name: str, seed: int, body: Dict) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    body = dict({"workload": name, "seed": seed}, **body)
    with open(OUT_DIR / f"trace_{name}.json", "w") as fh:
        json.dump(body, fh)
        fh.write("\n")
