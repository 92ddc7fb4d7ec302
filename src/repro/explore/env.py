"""Gym-style environment over the simulator + surrogate.

:class:`ExploreEnv` is the evaluation substrate the search algorithms
drive.  The interface follows the classic gym contract —

* **action**: a genome of the environment's :class:`SearchSpace`,
* **observation**: the candidate's metrics (objective vector, saturation
  assessment, and — when the step is simulated with telemetry — the
  stall-class shares from ``repro.telemetry``'s attribution),
* **reward**: the hypervolume gained by the episode's running frontier,
  so reward accrues exactly when the agent finds designs that push the
  frontier out, and repeat/dominated visits earn nothing.

Evaluation is two-tier, mirroring the hybrid sweeps of ``repro.sweep``:
``evaluate()`` scores a genome with the analytical surrogate
(milliseconds, memoised by config hash so inert-gene duplicates are
free), while ``simulate()`` runs the cycle-level simulator for ground
truth.  The search layer (:mod:`repro.explore.search`) batches its
simulations through ``SweepRunner`` instead so they land in the shared
result cache; ``ExploreEnv.simulate`` is the interactive, single-point
path and the only one that can attach stall observations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.explore.objectives import (
    OBJECTIVE_NAMES,
    SENSES,
    from_prediction,
    from_result,
)
from repro.explore.pareto import (
    FrontierPoint,
    ParetoFrontier,
    default_reference,
    hypervolume,
)
from repro.explore.space import Genome, SearchSpace, demo_space
from repro.sweep.jobs import JobSpec


@dataclass
class EvalRecord:
    """One evaluated design: surrogate score, optional simulated truth."""

    genome: Genome
    values: Dict[str, Any]
    config_hash: str
    job_key: str
    gpu: str
    cpu: str
    mechanism: str
    #: surrogate objective vector (always present).
    objectives: Dict[str, float]
    demand_rho: float = 0.0
    saturated: bool = False
    bottleneck: str = ""
    #: simulated objective vector, once the candidate is promoted.
    sim_objectives: Optional[Dict[str, float]] = None
    sim_metrics: Dict[str, float] = field(default_factory=dict)
    cached: bool = False

    @property
    def source(self) -> str:
        return "simulated" if self.sim_objectives is not None else "surrogate"

    @property
    def final_objectives(self) -> Dict[str, float]:
        return self.sim_objectives if self.sim_objectives is not None else self.objectives

    def frontier_point(self) -> FrontierPoint:
        return FrontierPoint(
            config_hash=self.config_hash,
            gpu=self.gpu,
            cpu=self.cpu,
            mechanism=self.mechanism,
            values=dict(self.values),
            objectives=dict(self.final_objectives),
            source=self.source,
            job_key=self.job_key if self.source == "simulated" else None,
            metrics=dict(self.sim_metrics)
            if self.source == "simulated"
            else {"demand_rho": round(self.demand_rho, 4)},
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "genome": list(self.genome),
            "values": dict(self.values),
            "config_hash": self.config_hash,
            "job_key": self.job_key,
            "gpu": self.gpu,
            "cpu": self.cpu,
            "mechanism": self.mechanism,
            "source": self.source,
            "objectives": {k: round(v, 6) for k, v in self.objectives.items()},
            "sim_objectives": (
                {k: round(v, 6) for k, v in self.sim_objectives.items()}
                if self.sim_objectives is not None
                else None
            ),
            "demand_rho": round(self.demand_rho, 4),
            "saturated": self.saturated,
            "bottleneck": self.bottleneck,
            "cached": self.cached,
        }


class ExploreEnv:
    """Design-space environment; actions are genomes, reward is frontier
    hypervolume gain."""

    def __init__(
        self,
        space: Union[str, SearchSpace],
        *,
        cycles: Optional[int] = None,
        warmup: Optional[int] = None,
        budget: Optional[int] = None,
        observe_stalls: bool = False,
        backend: Optional[str] = None,
    ) -> None:
        self.space = demo_space(space) if isinstance(space, str) else space
        self.cycles = self.space.cycles if cycles is None else cycles
        self.warmup = self.space.warmup if warmup is None else warmup
        #: simulation engine ground-truth promotions run on (None:
        #: $REPRO_BACKEND / object — see repro.sim.engines)
        self.backend = backend
        #: episode ends after this many *unique* surrogate evaluations.
        self.budget = budget
        #: simulate() runs with telemetry + stall attribution enabled so
        #: observations carry stall-class shares (a traced run is its own
        #: sweep job: telemetry-enabled specs hash their telemetry section).
        self.observe_stalls = observe_stalls
        self._memo: Dict[Tuple[str, str], EvalRecord] = {}
        self._frontier = ParetoFrontier(OBJECTIVE_NAMES, SENSES)
        self._seen_vectors: List[Tuple[float, ...]] = []
        self._hv = 0.0
        self.evaluations = 0
        self.steps = 0

    # -- evaluation -------------------------------------------------------

    def spec(self, genome: Genome) -> JobSpec:
        """The content-addressed sweep job for a genome.

        Built exactly like an ordinary ``repro.sweep`` job, so explore
        simulations share cache entries with sweeps and validations of
        the same configuration.
        """
        cfg, gpu, cpu = self.space.decode(genome)
        return JobSpec.make(
            cfg,
            gpu,
            cpu,
            cycles=self.cycles,
            warmup=self.warmup,
            label=(
                "explore",
                self.space.name,
                cfg.mechanism.value,
                gpu,
                cfg.config_hash()[:8],
            ),
            backend=self.backend,
        )

    def evaluate(self, genome: Genome) -> EvalRecord:
        """Surrogate-score a genome (memoised by decoded config hash)."""
        from repro.model.compose import predict

        cfg, gpu, cpu = self.space.decode(genome)
        key = (cfg.config_hash(), gpu)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        pred = predict(cfg, gpu, cpu)
        record = EvalRecord(
            genome=tuple(genome),
            values=self.space.values(genome),
            config_hash=key[0],
            job_key=self.spec(genome).key(),
            gpu=gpu,
            cpu=cpu,
            mechanism=cfg.mechanism.value,
            objectives=from_prediction(cfg, pred),
            demand_rho=pred.demand_rho,
            saturated=pred.saturated,
            bottleneck=pred.bottleneck,
        )
        self._memo[key] = record
        self.evaluations += 1
        return record

    def simulate(self, genome: Genome) -> EvalRecord:
        """Ground-truth a genome with one cycle-level simulation.

        With ``observe_stalls`` the run carries telemetry + stall
        attribution, and the record's ``sim_metrics`` gains
        ``stall_share.<class>`` entries for the observation.
        """
        from repro.api import simulate as _simulate
        from repro.sweep.runner import stall_shares

        record = self.evaluate(genome)
        if record.sim_objectives is not None:
            return record
        cfg, gpu, cpu = self.space.decode(genome)
        if self.observe_stalls:
            cfg.telemetry.enabled = True
            cfg.telemetry.mode = "full"
        result = _simulate(
            cfg, gpu, cpu=cpu, cycles=self.cycles, warmup=self.warmup
        )
        record.sim_objectives = from_result(cfg, result)
        record.sim_metrics = {
            "cpu_latency_avg": result.cpu_latency_avg,
            "gpu_latency_p95": result.gpu_latency_p95,
            "mem_blocking_rate": result.mem_blocking_rate,
        }
        for cls, share in stall_shares(result.stall_breakdown).items():
            record.sim_metrics[f"stall_share.{cls}"] = share
        return record

    # -- gym surface ------------------------------------------------------

    def reset(self, seed: Optional[int] = None) -> Dict[str, Any]:
        """Clear episode state; returns the default design's observation.

        ``seed`` is accepted for gym parity; the environment itself is
        deterministic (all stochasticity lives in the search policy).
        """
        del seed
        self._frontier = ParetoFrontier(OBJECTIVE_NAMES, SENSES)
        self._seen_vectors = []
        self._hv = 0.0
        self.steps = 0
        record = self.evaluate(self.space.default_genome())
        self._observe_frontier(record)
        return self.observation(record)

    def step(
        self, action: Genome, *, simulate: bool = False
    ) -> Tuple[Dict[str, Any], float, bool, Dict[str, Any]]:
        """Evaluate one design; returns (observation, reward, done, info)."""
        record = self.simulate(action) if simulate else self.evaluate(action)
        reward = self._observe_frontier(record)
        self.steps += 1
        done = self.budget is not None and self.evaluations >= self.budget
        info = {
            "record": record,
            "frontier_size": len(self._frontier),
            "hypervolume": self._hv,
            "evaluations": self.evaluations,
        }
        return self.observation(record), reward, done, info

    def observation(self, record: EvalRecord) -> Dict[str, Any]:
        obs = {
            "objectives": dict(record.final_objectives),
            "source": record.source,
            "demand_rho": record.demand_rho,
            "saturated": record.saturated,
            "bottleneck": record.bottleneck,
            "stall_shares": {
                k.split(".", 1)[1]: v
                for k, v in record.sim_metrics.items()
                if k.startswith("stall_share.")
            },
        }
        return obs

    @property
    def frontier(self) -> ParetoFrontier:
        return self._frontier

    def _observe_frontier(self, record: EvalRecord) -> float:
        """Fold a record into the running frontier; return the hypervolume
        gained.

        The reference point is the running nadir (plus margin) over every
        objective vector seen this episode, so the reward scale adapts to
        the region the search actually visits while staying deterministic
        for a deterministic action stream.  Both the before- and
        after-insert frontiers are scored at the *current* reference, so
        the gain is never negative: a step that moves the reference out
        without improving the frontier earns exactly zero.
        """
        vec = tuple(
            float(record.final_objectives[n]) for n in OBJECTIVE_NAMES
        )
        self._seen_vectors.append(vec)
        before = self._frontier.vectors()
        self._frontier.insert(record.frontier_point())
        reference = default_reference(self._seen_vectors, SENSES)
        prev = hypervolume(before, reference, SENSES)
        hv = hypervolume(self._frontier.vectors(), reference, SENSES)
        self._hv = hv
        return hv - prev
