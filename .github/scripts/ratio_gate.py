#!/usr/bin/env python3
"""CI gates on a ratio of two timings taken inside one commit.

    PYTHONPATH=src python .github/scripts/ratio_gate.py vector|telemetry|sweep

``e2e_bench/run.py --compare`` judges one commit against another; these
claims compare two ways of running the *same* commit, so they live here,
all under one protocol:

* ``vector``    three bare-fabric measurements: saturated 16x16 mesh, 500
                cycles, the vector backend is >= 3x the object kernel
                (reads 4.3-4.6x); ``mesh8x8_dr``, 800 cycles — 8 memory
                nodes, delegation firing — >= 1.2x (reads 1.33-1.35x; it
                was 1.7-2x against the six-table router, so this is a
                floor under the memory lanes, not a margin); and the
                16x16 schedule on a ``bandwidth_factor=2`` fabric, 300
                cycles, >= 3.5x (reads 4.2-4.4x; a per-node injection
                loop is ~2.5x).
                Then the two sides of the selection rule
                (``repro.sim.engines.VECTOR_ABOVE_NODES`` = 225) on full
                systems, + canneal, 200 warm-up + 300 timed cycles,
                equal ``collect_counters``, 3 rounds, at cells of
                DESIGN.md §12's table: NN under DR on a 16x16 mesh, the
                selected vector kernel >= 1.1x object (single rounds read
                1.18-1.32x); HS under the baseline on the 8x8, the
                selected object kernel >= 1.3x vector (1.35-1.67x).
* ``telemetry`` ``mesh8x8_dr``, 1200 cycles: light-mode telemetry costs
                < 10% over telemetry off, and both fabrics end on
                identical per-network counters.  Then full mode (exact
                stall attribution) on the clogged full system: HS +
                canneal under DR on the 8x8, 200 warm-up + 300 timed
                cycles, each side the least of three fresh runs, 7
                rounds, equal ``collect_counters``: full costs < 25%
                over off (a median off/full >= 0.8).  Medians read
                0.82-0.93 (+8% to +22%); the stall table it replaced —
                one dict of open records keyed by tuple, memory rows
                charged every cycle — read 0.72-0.82 (+22% to +39%) and
                fails.  The bare fabric separates the two worse (single
                rounds of full/off: 1.08-1.39x against 1.37-1.80x), so
                this gate runs the full system.
* ``sweep``     16 probe jobs of 40 ms through ``SweepRunner``: 2 warm
                workers are >= 1.2x inline.  A probe sleeps, and sleeps
                overlap even on one core, so the ratio is the sweep
                fabric's dispatch cost, not the runner's core count.

Protocol: a gate is two callables returning wall seconds, a base and a
contender.  Every round runs both back to back; round 0 warms caches,
clocks and pools and is discarded; the gate's figure is the best paired
ratio of the remaining rounds, which cancels drift a quotient of two
minima cannot.  The full-mode gate reads the median paired ratio
instead: its sides are ~15% apart, and one hiccup on the base side in
seven rounds would otherwise read as full mode being free.  A timing
that misses its threshold is retried once (a shared runner can ruin any
single measurement).  An identity failure
raises where it is seen and is never retried: it is a bug, not noise.
Wrap in ``timeout 90``.
"""

from __future__ import annotations

import atexit
import statistics
import sys
import time
from typing import Callable, Dict, List, NamedTuple

from repro.bench import SCENARIOS, delivered, replay
from repro.bench.traffic import Schedule

WARMUP = 100


class Gate(NamedTuple):
    #: the two sides, each returning wall seconds; the figure is the
    #: contender's speed in units of the base's, ``base() / contender()``
    base: Callable[[], float]
    contender: Callable[[], float]
    #: the gate passes when its figure reaches this
    threshold: float
    rounds: int
    #: one-line reading of a ratio for the log
    describe: Callable[[float], str]
    #: the gate's figure from its per-round ratios
    pick: Callable[[List[float]], float] = max


def _timed_replay(fabric, schedule: Schedule, on_cycle=None) -> float:
    """Wall seconds of ``schedule`` after an untimed ``WARMUP`` cycles."""
    replay(fabric, schedule[:WARMUP], on_cycle=on_cycle)
    t0 = time.perf_counter()
    replay(fabric, schedule[WARMUP:], start=WARMUP, on_cycle=on_cycle)
    return time.perf_counter() - t0


def _vector_gate(
    name: str, schedule: Schedule, build: Callable[[str], object],
    threshold: float,
) -> Gate:
    """Object vs vector on ``schedule``; ``build(backend)`` makes the
    fabric."""
    seen: Dict[str, tuple] = {}

    def run(backend: str) -> float:
        fabric = build(backend)
        wall = _timed_replay(fabric, schedule)
        seen[backend] = delivered(fabric)
        if len(seen) == 2 and seen["object"] != seen["vector"]:
            raise AssertionError(f"backends delivered different traffic: {seen}")
        return wall

    return Gate(
        lambda: run("object"), lambda: run("vector"), threshold, rounds=2,
        describe=lambda r: f"{name}: vector {r:.2f}x the object kernel "
                           f"(needs >= {threshold:g}x)",
    )


def _timed_system(cfg, gpu: str, backend=None):
    """Full-system ``gpu`` + canneal on ``cfg``: wall seconds of 300
    cycles after an untimed 200, and the counters it ends on."""
    from repro.sim.metrics import collect_counters
    from repro.sim.simulator import build_system

    system = build_system(cfg, gpu, "canneal", backend=backend)
    system.run(200)
    t0 = time.perf_counter()
    system.run(300)
    wall = time.perf_counter() - t0
    return wall, collect_counters(system)


def _selection_gate(cfg, gpu: str, slower: str, threshold: float) -> Gate:
    """Full-system ``gpu`` + canneal on ``cfg``: the kernel the code
    selects for it against ``slower``, the other one."""
    from repro.sim.engines import select_backend

    selected = select_backend(None, cfg.n_nodes, cfg.noc)
    if selected == slower:
        raise AssertionError(f"{slower} is selected where it should lose")
    seen: Dict[str, dict] = {}

    def run(backend: str) -> float:
        wall, seen[backend] = _timed_system(cfg, gpu, backend)
        if len(seen) == 2 and seen[selected] != seen[slower]:
            raise AssertionError("the two kernels ended on different counters")
        return wall

    name = f"{gpu} {cfg.mechanism.value} {cfg.mesh_width}x{cfg.mesh_height}"
    return Gate(
        lambda: run(slower), lambda: run(selected), threshold, rounds=3,
        describe=lambda r: f"{name}: selected {selected} {r:.2f}x {slower} "
                           f"(needs >= {threshold:g}x)",
    )


def vector_gates() -> List[Gate]:
    from repro.config import (
        NocConfig, baseline_config, delegated_replies_config, table1_mix,
    )
    from repro.noc import MeshTopology
    from repro.sim.engines import build_fabric

    sat, dr = SCENARIOS["mesh16x16_sat"], SCENARIOS["mesh8x8_dr"]
    return [
        _vector_gate("mesh16x16_sat", sat.schedule(WARMUP + 500), sat.build, 3.0),
        _vector_gate("mesh8x8_dr", dr.schedule(WARMUP + 800), dr.build, 1.2),
        _vector_gate(
            "mesh16x16_sat at bandwidth_factor=2", sat.schedule(WARMUP + 300),
            lambda backend: build_fabric(
                backend, MeshTopology(sat.width, sat.height),
                NocConfig(bandwidth_factor=2.0),
            ),
            3.5,
        ),
        _selection_gate(
            delegated_replies_config(**table1_mix(16, 16)), "NN", "object", 1.1
        ),
        _selection_gate(baseline_config(), "HS", "vector", 1.3),
    ]


def telemetry_gates() -> List[Gate]:
    from repro.config.system import TelemetryConfig
    from repro.telemetry.collector import TelemetryCollector

    scenario = SCENARIOS["mesh8x8_dr"]
    schedule = scenario.schedule(WARMUP + 1200)
    seen: Dict[bool, list] = {}

    def run(light: bool) -> float:
        fabric = scenario.build()
        on_cycle = None
        if light:
            collector = TelemetryCollector(
                TelemetryConfig(enabled=True, mode="light", probe_interval=200),
                fabric, scenario.mem_nodes,
            )
            fabric.attach_telemetry(collector)
            on_cycle = collector.on_cycle
        wall = _timed_replay(fabric, schedule, on_cycle)
        if light:
            collector.finalize(len(schedule))
        nets = {id(n): n for n in (fabric.request_net, fabric.reply_net)}
        seen[light] = [
            (n.packets_delivered, n.flits_delivered, n.total_flits_routed())
            for n in nets.values()
        ]
        if len(seen) == 2 and seen[True] != seen[False]:
            raise AssertionError(f"telemetry changed the run it watched: {seen}")
        return wall

    # light's speed >= 1/1.10 of off's is light's wall <= 1.10x off's
    return [
        Gate(
            lambda: run(False), lambda: run(True), 1 / 1.10, rounds=5,
            describe=lambda r: f"light telemetry {(1 / r - 1) * 100:+.1f}% "
                               "over off (needs < 10%), counters identical",
        ),
        _full_mode_gate(),
    ]


def _full_mode_gate() -> Gate:
    """Full mode (stall attribution) against telemetry off on the clogged
    full system: HS + canneal under DR on the 8x8."""
    from repro.config import delegated_replies_config

    cfgs = {False: delegated_replies_config(), True: delegated_replies_config()}
    cfgs[True].telemetry.enabled = True
    cfgs[True].telemetry.mode = "full"
    seen: Dict[bool, dict] = {}

    def run(full: bool) -> float:
        walls = []
        for _ in range(3):
            wall, seen[full] = _timed_system(cfgs[full], "HS")
            walls.append(wall)
            if len(seen) == 2 and seen[True] != seen[False]:
                raise AssertionError("full telemetry changed the run it watched")
        return min(walls)

    # full's speed >= 1/1.25 of off's is full's wall <= 1.25x off's
    return Gate(
        lambda: run(False), lambda: run(True), 1 / 1.25, rounds=7,
        describe=lambda r: f"full telemetry {(1 / r - 1) * 100:+.1f}% over off "
                           "on HS DR 8x8 (needs < 25%), counters identical",
        pick=statistics.median,
    )


def _probe_job(spec_dict: Dict) -> Dict:
    """An ideal sweep job: sleeps ``cycles`` milliseconds, returns a
    minimal result, so the wall time around it is the sweep fabric's."""
    from repro.sim.metrics import SimulationResult

    ms = spec_dict["cycles"]
    time.sleep(ms / 1000.0)
    return {"result": SimulationResult(cycles=ms).to_dict(),
            "wall_time_s": ms / 1000.0}


def sweep_gates() -> List[Gate]:
    from repro.sweep import JobSpec, SweepRunner

    # warmup varies so the 16 specs have 16 keys
    probes = [
        JobSpec.make({"seed": i}, gpu="probe", cpu=None, cycles=40, warmup=i,
                     label=(f"probe{i}",))
        for i in range(16)
    ]
    runners = {
        jobs: SweepRunner(cache=None, jobs=jobs, max_retries=0, worker=_probe_job)
        for jobs in (1, 2)
    }
    atexit.register(runners[2].close)
    runners[2].warm()

    def run(jobs: int) -> float:
        t0 = time.perf_counter()
        outcomes = runners[jobs].run(probes)
        wall = time.perf_counter() - t0
        if not all(o.status == "ok" for o in outcomes.values()):
            raise AssertionError(f"probe jobs failed at {jobs} worker(s)")
        return wall

    return [Gate(
        lambda: run(1), lambda: run(2), 1.2, rounds=3,
        describe=lambda r: f"2 warm workers {r:.2f}x inline (needs >= 1.2x)",
    )]


#: name -> the measurements it stands for; every one must pass
GATES = {
    "vector": vector_gates, "telemetry": telemetry_gates, "sweep": sweep_gates,
}


def figure(gate: Gate) -> float:
    ratios: List[float] = []
    for rnd in range(gate.rounds + 1):
        base, contender = gate.base(), gate.contender()
        if rnd:  # round 0 is the warm-up
            ratios.append(base / contender)
    print("  per-round ratios: " + ", ".join(f"{r:.3f}" for r in ratios))
    return gate.pick(ratios)


def passes(gate: Gate) -> bool:
    for attempt in ("first", "retry"):
        ratio = figure(gate)
        passed = ratio >= gate.threshold
        print(f"{'ok' if passed else 'FAIL'} ({attempt} attempt): "
              + gate.describe(ratio))
        if passed:
            return True
    return False


def main(argv: List[str]) -> int:
    if len(argv) != 1 or argv[0] not in GATES:
        print(f"usage: ratio_gate.py {'|'.join(GATES)}", file=sys.stderr)
        return 2
    # a list, not a generator: every measurement runs and prints its ratio
    return 0 if all([passes(gate) for gate in GATES[argv[0]]()]) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
