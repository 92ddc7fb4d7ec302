"""The five workloads: how each builds its inputs and runs one rep.

Every workload is a closed loop — one simulation (or one sweep) at a
time, the next starts when the previous returns.  ``--seed`` goes into
``SystemConfig.seed`` or the benchmark's own packet-schedule generator;
the program sees only the generated inputs.  Sizes are fixed here and
are the same on every commit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import resource
import shutil
import statistics
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.config import NocConfig, baseline_config, delegated_replies_config
from repro.noc.packet import MessageType, NetKind, Packet, TrafficClass
from repro.noc.topology import build_topology
from repro.sim.engines import build_fabric
from repro.sim.metrics import collect_counters, derive_result, diff_counters
from repro.sim.simulator import build_system
from repro.sweep import JobSpec, ResultCache, SweepRunner, mechanism_jobs, simulate_job

from calib import CAL_REF_S, Segments, lower_quartile, quiet_seconds, spin, timed_setup
from layers import TraceRecorder

#: simulated cycles per timed segment (and per trace window)
CHUNK = 100
OUT_DIR = Path(__file__).resolve().parent / "out"
#: the paper's Fig. 10 mean DR GPU speedup, as held in
#: benchmarks/results/fig10_gpu_perf.txt
PAPER_DR_GPU_SPEEDUP = 1.257

WORKLOAD_NAMES = (
    "fullsys8",
    "fullsys16_vec",
    "fabric_sat",
    "sweep_fig10",
    "fullsys8_tel",
)


def stats_digest(obj) -> str:
    """sha256 of the canonical JSON of simulated counters."""
    payload = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _scaled(cycles: int, smoke: bool) -> int:
    """Window length: a tenth under ``--smoke``, in whole chunks."""
    if not smoke:
        return cycles
    return max(CHUNK, -(-cycles // 10 // CHUNK) * CHUNK)


def _add(into: Dict[str, float], counters: Dict[str, float]) -> None:
    for k, v in counters.items():
        into[k] = into.get(k, 0) + v


@dataclass
class Rep:
    """What one rep measured."""

    seg: Segments
    setup_s: float
    kcycles: float
    flit_hops: int
    digest: str
    #: number of simulations / jobs the rep ran (operations attempted)
    sims: int
    #: measured-window counters, summed over the rep's simulations
    window: Dict[str, float] = field(default_factory=dict)
    #: whole-run counters (warm-up included), summed likewise
    totals: Dict[str, float] = field(default_factory=dict)
    recorder: Optional[TraceRecorder] = None
    #: failed checks found while running the rep, one line each
    failures: List[str] = field(default_factory=list)
    #: checks the rep made on itself (operations attempted)
    checks: int = 0
    extra: Dict = field(default_factory=dict)


class Workload:
    """What the three kinds of workload share."""

    #: the first rep is a warm-up whose timings are discarded
    discard_first = True
    #: measured reps a run makes at least, however short ``--seconds`` is
    min_reps = 3

    def twin(self) -> Optional["Workload"]:
        """The telemetry-off version of a telemetry workload, else None."""
        return None

    def warmup_rep(self, seed: int) -> "Rep":
        """The rep a run starts with: its timings are discarded, its
        digest is the one every measured rep must reproduce."""
        return self.rep(seed)

    def body_seconds(self, reps: List["Rep"]) -> Tuple[float, List[float]]:
        """The headline normalised seconds of the timed body (see
        ``calib.quiet_seconds``) and the per-rep seconds behind it."""
        segs = [r.seg for r in reps]
        return quiet_seconds(segs), [sum(seg.normalised()) for seg in segs]


# ---------------------------------------------------------------------------
# full-system workloads
# ---------------------------------------------------------------------------


def _mesh16(make: Callable) -> Callable:
    return lambda: make(mesh_width=16, mesh_height=16, n_gpu=160, n_cpu=64, n_mem=32)


@dataclass(frozen=True)
class FullSystem(Workload):
    """HS + canneal on the full chip, one simulation per config, back to
    back; the body is ``run_simulation``'s, cut into timed chunks."""

    name: str
    configs: Tuple[Callable, ...]
    warmup: int
    cycles: int
    backend: Optional[str] = None
    telemetry: bool = False

    def twin(self) -> Optional["FullSystem"]:
        return dataclasses.replace(self, telemetry=False) if self.telemetry else None

    def warmup_rep(self, seed: int) -> "Rep":
        # telemetry must be read-only: a telemetry workload has to
        # reproduce the digest of its telemetry-off twin
        return (self.twin() or self).rep(seed)

    def _build(self, seed: int):
        systems = []
        for make in self.configs:
            cfg = make()
            cfg.seed = seed
            if self.telemetry:
                # stall attribution on; no trace_path/flight_dir, so no I/O
                cfg.telemetry.enabled = True
                cfg.telemetry.mode = "full"
            systems.append(build_system(cfg, "HS", "canneal", backend=self.backend))
        return systems

    def rep(self, seed: int, traced: bool = False) -> Rep:
        systems, setup_s = timed_setup(lambda: self._build(seed))
        recorder = TraceRecorder() if traced else None
        seg = Segments()
        window: Dict[str, float] = {}
        totals: Dict[str, float] = {}
        per_sim = []
        hops = 0
        extra = {"backend": systems[0].backend, "tel_events": 0, "tel_stalls": 0}
        for i, system in enumerate(systems):
            if recorder is not None:
                recorder.sim = i
                recorder.wrap_handlers(system)
                run = lambda n, s=system: recorder.run_system(s, n)
            else:
                run = system.run
            for _ in range(self.warmup // CHUNK):
                seg.timed("run", run, CHUNK)
            base = seg.timed("snapshot", collect_counters, system)
            if system.telemetry is not None:
                system.telemetry.mark_window_start(system.cycle)
            for _ in range(self.cycles // CHUNK):
                seg.timed("run", run, CHUNK)
            end, result = seg.timed("collect", self._collect, system, base)
            per_sim.append(result.counters)
            _add(window, result.counters)
            _add(totals, end)
            fabric = system.fabric
            hops += (
                fabric.request_net.total_flits_routed()
                + fabric.reply_net.total_flits_routed()
            )
            extra["tel_events"] += sum(
                v for k, v in result.telemetry_metrics.items() if k.startswith("events.")
            )
            extra["tel_stalls"] += sum(
                n for group in result.stall_breakdown.values() for n in group.values()
            )
        return Rep(
            seg=seg,
            setup_s=setup_s,
            kcycles=len(systems) * (self.warmup + self.cycles) / 1000.0,
            flit_hops=hops,
            digest=stats_digest(per_sim),
            sims=len(systems),
            window=window,
            totals=totals,
            recorder=recorder,
            extra=extra,
        )

    @staticmethod
    def _collect(system, base):
        end = collect_counters(system)
        if system.telemetry is not None:
            system.telemetry.finalize(system.cycle)
        return end, derive_result(system, diff_counters(end, base))


# ---------------------------------------------------------------------------
# bare fabric
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FabricSat(Workload):
    """Uniform-random traffic past saturation on a bare 16x16 vector
    mesh: the fabric does all the work, every other layer none."""

    name: str
    cycles: int
    side: int = 16
    #: packets drawn per 1,000 node-cycles
    permille: int = 250
    #: drain limit for the conservation check, in cycles
    drain_limit: int = 20_000

    def _build(self, seed: int):
        cfg = NocConfig()
        fabric = build_fabric(
            "vector", build_topology(cfg.topology, self.side, self.side), cfg
        )
        n = self.side * self.side
        per_cycle = n * self.permille // 1000
        rng = random.Random(seed)
        schedule = []
        for _ in range(self.cycles):
            row = []
            for _ in range(per_cycle):
                src = rng.randrange(n)
                dst = rng.randrange(n - 1)
                if dst >= src:
                    dst += 1
                if rng.getrandbits(1):
                    row.append(Packet(src, dst, MessageType.READ_REQ, TrafficClass.GPU, 1))
                else:
                    row.append(Packet(src, dst, MessageType.READ_REPLY, TrafficClass.GPU, 9))
            schedule.append(row)
        #: [delivered, delivered to the wrong node]
        got = [0, 0]
        for node, nic in enumerate(fabric.nics):
            nic.handler = self._counting_handler(node, got)
        return fabric, schedule, got

    @staticmethod
    def _counting_handler(node: int, got: List[int]):
        def handler(pkt, cycle):
            got[0] += 1
            if pkt.dst != node:
                got[1] += 1

        return handler

    @staticmethod
    def _drive(fabric, schedule, start: int, cycles: int, offered: List[int]) -> None:
        nics = fabric.nics
        step = fabric.step
        sent = 0
        for cycle in range(start, start + cycles):
            for pkt in schedule[cycle]:
                if nics[pkt.src].try_send(pkt, cycle):
                    sent += 1
            step(cycle)
        offered[0] += sent

    def warmup_rep(self, seed: int) -> Rep:
        return self.rep(seed, drain=True)

    def rep(self, seed: int, traced: bool = False, drain: bool = False) -> Rep:
        """One rep; with ``drain`` it also checks packet conservation."""
        (fabric, schedule, got), setup_s = timed_setup(lambda: self._build(seed))
        recorder = TraceRecorder() if traced else None
        drive = recorder.run_fabric if traced else self._drive
        seg = Segments()
        offered = [0]
        for start in range(0, self.cycles, CHUNK):
            seg.timed("run", drive, fabric, schedule, start, CHUNK, offered)
        window = {
            "offered": offered[0],
            "refused": sum(len(row) for row in schedule) - offered[0],
            "delivered": got[0],
            "in_flight_flits": fabric.in_flight_flits(),
            "req_delivered": fabric.request_net.packets_delivered,
            "rep_delivered": fabric.reply_net.packets_delivered,
            "noc.req_flits_routed": fabric.request_net.total_flits_routed(),
            "noc.rep_flits_routed": fabric.reply_net.total_flits_routed(),
            "noc.req_packets": sum(
                nic.packets_sent_net[NetKind.REQUEST] for nic in fabric.nics
            ),
            "noc.rep_packets": sum(
                nic.packets_sent_net[NetKind.REPLY] for nic in fabric.nics
            ),
        }
        rep = Rep(
            seg=seg,
            setup_s=setup_s,
            kcycles=self.cycles / 1000.0,
            flit_hops=window["noc.req_flits_routed"] + window["noc.rep_flits_routed"],
            digest=stats_digest(window),
            sims=1,
            window=window,
            recorder=recorder,
            extra={"backend": "vector"},
        )
        if drain:
            rep.checks += 1
            rep.failures += self._conservation(fabric, offered[0], got)
        return rep

    def _conservation(self, fabric, offered: int, got: List[int]) -> List[str]:
        """Offered = delivered + queued + in flight, checked by draining:
        with nothing more offered, every accepted packet must arrive,
        once, at its destination, and leave the fabric empty."""
        cycle = self.cycles
        while got[0] < offered and cycle < self.cycles + self.drain_limit:
            fabric.step(cycle)
            cycle += 1
        left = fabric.in_flight_flits()
        if got[0] != offered or got[1] or left:
            return [
                f"fabric_sat conservation: offered {offered}, delivered {got[0]} "
                f"({got[1]} at the wrong node), {left} flits left after "
                f"{cycle - self.cycles} drain cycles"
            ]
        return []


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def calibrated_job(spec_dict: Dict) -> Dict:
    """Pool worker: ``simulate_job`` between two spins, its wall time
    reported in normalised seconds.  (Pickled by name: forked workers
    inherit this module; a spawn-only platform would need ``e2e_bench``
    on the workers' path.)"""
    before = spin()
    payload = simulate_job(spec_dict)
    payload["wall_time_s"] *= 2.0 * CAL_REF_S / (before + spin())
    return payload


def _children_cpu_s() -> float:
    """CPU seconds of every child process waited for so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


@dataclass(frozen=True)
class SweepFig10(Workload):
    """The Fig. 10 mechanism sweep — 11 Table II GPU benchmarks x
    (baseline, DR), one CPU co-runner — through ``SweepRunner`` with two
    workers and a fresh on-disk cache: a cold run, then warm passes."""

    name: str
    warmup: int
    cycles: int
    jobs: int = 2
    #: passes over the cached specs after the cold run (each also checks
    #: that the cache returns what the cold run computed)
    warm_passes: int = 1
    #: a rep's speed-up must exceed 1.0 unless the windows are too short
    #: for the mechanism to act (``--smoke``)
    check_speedup: bool = True

    # every rep forks a fresh pool, so none is warmer than another; a
    # cold sweep takes ~5 s, so four of them fill the run
    discard_first = False
    min_reps = 4

    def body_seconds(self, reps: List[Rep]) -> Tuple[float, List[float]]:
        """Normalised seconds of one cold sweep.

        A sweep spans two worker processes and cannot be cut into
        segments from outside, but each job can be timed between two
        spins inside its worker (``calibrated_job``), and job ``j`` is
        the same work in every rep.  The estimate is the sum over jobs
        of the lower quartile across reps of the job's normalised
        seconds, stretched by the median ratio of a rep's sweep wall to
        its workers' CPU seconds (pool overhead and idle tails; a ratio
        taken inside one rep, so host noise cancels).
        """
        walls = [[job["wall_time_s"] for job in r.extra["jobs"]] for r in reps]
        quiet_busy = sum(lower_quartile(col) for col in zip(*walls))
        stretch = statistics.median(
            r.seg.wall_s[0] / r.extra["worker_cpu_s"] for r in reps
        )
        # per rep: its own jobs' normalised seconds and its own stretch
        return quiet_busy * stretch, [
            sum(w) * r.seg.wall_s[0] / r.extra["worker_cpu_s"]
            for r, w in zip(reps, walls)
        ]

    def specs(self, seed: int) -> List[JobSpec]:
        out = []
        for spec in mechanism_jobs(None, 1, self.cycles, self.warmup, ("baseline", "dr")):
            cfg = spec.system_config()
            cfg.seed = seed
            out.append(
                JobSpec.make(
                    cfg, spec.gpu, spec.cpu, cycles=spec.cycles,
                    warmup=spec.warmup, label=spec.label,
                )
            )
        return out

    def _setup(self, seed: int, cache_dir: str):
        specs = self.specs(seed)
        runner = SweepRunner(
            cache=ResultCache(cache_dir), jobs=self.jobs, worker=calibrated_job
        )
        runner.warm()
        return specs, runner

    def rep(self, seed: int) -> Rep:
        OUT_DIR.mkdir(exist_ok=True)
        cache_dir = tempfile.mkdtemp(prefix="sweep-cache-", dir=OUT_DIR)
        runner = None
        cpu_before = _children_cpu_s()
        try:
            (specs, runner), setup_s = timed_setup(lambda: self._setup(seed, cache_dir))
            seg = Segments()
            cold = seg.timed("cold", runner.run, specs)
            warm_seg = Segments()
            for _ in range(self.warm_passes):
                warm = warm_seg.timed("warm", runner.run, specs)
        finally:
            if runner is not None:
                runner.close()
            shutil.rmtree(cache_dir, ignore_errors=True)
        rep = Rep(
            seg=seg,
            setup_s=setup_s,
            kcycles=len(cold) * (self.warmup + self.cycles) / 1000.0,
            flit_hops=0,
            digest="",
            sims=len(cold),
            extra={
                # the pool is closed, so its workers' CPU time is in
                "worker_cpu_s": _children_cpu_s() - cpu_before,
                # each pass is the same work: the quiet one, times passes
                "warm_s": lower_quartile(warm_seg.normalised()) * self.warm_passes,
                "jobs": [
                    {
                        "label": "/".join(o.spec.label),
                        "status": o.status,
                        "wall_time_s": o.wall_time_s,
                        "attempts": o.attempts,
                    }
                    for o in cold.values()
                ],
            },
        )
        per_job = {}
        for key, out in cold.items():
            if out.status != "ok":
                rep.failures.append(f"sweep job {out.spec.describe()}: {out.error or out.status}")
                continue
            counters = out.result.counters
            per_job["/".join(out.spec.label)] = counters
            _add(rep.window, counters)
            rep.flit_hops += int(
                counters["noc.req_flits_routed"] + counters["noc.rep_flits_routed"]
            )
            again = warm.get(key)
            rep.checks += 1
            if (
                again is None
                or again.status != "cached"
                or again.result.to_dict() != out.result.to_dict()
            ):
                rep.failures.append(
                    f"warm pass of {out.spec.describe()} differs from its cold result"
                )
        rep.digest = stats_digest(per_job)
        if not rep.failures:
            ipc = {tuple(o.spec.label): o.result.gpu_ipc for o in cold.values()}
            ratios = [
                ipc[(gpu, cpu, "dr")] / ipc[(gpu, cpu, "baseline")]
                for (gpu, cpu, mech) in ipc
                if mech == "baseline"
            ]
            speedup = sum(ratios) / len(ratios)
            rep.extra["dr_gpu_speedup"] = speedup
            rep.checks += 1
            if self.check_speedup and speedup <= 1.0:
                rep.failures.append(f"sweep dr_gpu_speedup {speedup:.4f} <= 1.0")
        return rep


# ---------------------------------------------------------------------------


def make_workload(name: str, smoke: bool = False):
    """The workload called ``name`` at its fixed size (a tenth of it
    under ``smoke``)."""
    both = (baseline_config, delegated_replies_config)
    if name == "fullsys8":
        return FullSystem(name, both, _scaled(500, smoke), _scaled(1000, smoke))
    if name == "fullsys8_tel":
        return FullSystem(
            name, both, _scaled(500, smoke), _scaled(1000, smoke), telemetry=True
        )
    if name == "fullsys16_vec":
        return FullSystem(
            name,
            (_mesh16(delegated_replies_config),),
            _scaled(300, smoke),
            _scaled(700, smoke),
            backend="vector",
        )
    if name == "fabric_sat":
        return FabricSat(name, _scaled(2000, smoke))
    if name == "sweep_fig10":
        if smoke:
            return SweepFig10(name, 30, 50, check_speedup=False)
        return SweepFig10(name, 300, 500)
    raise KeyError(name)
