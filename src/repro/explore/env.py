"""Evaluation substrate of the search: genome -> surrogate score, job.

:class:`ExploreEnv` binds a :class:`SearchSpace` to a simulation window
and answers the two questions the search policies ask of a genome:
``evaluate()`` scores it with the analytical surrogate
(milliseconds, memoised by config hash so inert-gene duplicates are
free) and ``spec()`` names the cycle-level simulation that would
ground-truth it.  The hybrid driver (:func:`repro.explore.search.explore`)
runs those specs through ``SweepRunner`` so they land in the shared
result cache and fills in the records' ``sim_objectives``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.explore.objectives import from_prediction
from repro.explore.pareto import FrontierPoint
from repro.explore.space import Genome, SearchSpace, demo_space
from repro.sweep.jobs import JobSpec, job


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
    def key(self) -> Tuple[str, str]:
        """The design's identity: ``(config_hash, gpu)``."""
        return (self.config_hash, self.gpu)

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
    """A search space bound to a simulation window."""

    def __init__(
        self,
        space: Union[str, SearchSpace],
        *,
        cycles: Optional[int] = None,
        warmup: Optional[int] = None,
    ) -> None:
        self.space = demo_space(space) if isinstance(space, str) else space
        self.cycles = self.space.cycles if cycles is None else cycles
        self.warmup = self.space.warmup if warmup is None else warmup
        #: every design scored so far, by key, in first-seen order: the
        #: search's record stream
        self._memo: Dict[Tuple[str, str], EvalRecord] = {}

    @property
    def evaluations(self) -> int:
        """Unique designs scored so far."""
        return len(self._memo)

    def records(self) -> List[EvalRecord]:
        """Every design scored so far, in first-seen order."""
        return list(self._memo.values())

    # -- evaluation -------------------------------------------------------

    def spec(self, genome: Genome) -> JobSpec:
        """The content-addressed sweep job for a genome.

        Built exactly like an ordinary ``repro.sweep`` job, so explore
        simulations share cache entries with sweeps and validations of
        the same configuration.
        """
        cfg, gpu, cpu = self.space.decode(genome)
        return job(
            cfg,
            gpu,
            self.cycles,
            self.warmup,
            cpu,
            label=(
                "explore",
                self.space.name,
                cfg.mechanism.value,
                gpu,
                cfg.config_hash()[:8],
            ),
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
        return record
