"""Seeded multi-objective search over an :class:`ExploreEnv`.

Two policies at the same evaluation budget:

* :func:`nsga2_search` — an NSGA-II-style evolutionary loop: fast
  non-dominated sort + crowding distance for environmental selection,
  binary tournaments under the crowded-comparison operator, uniform
  crossover and per-knob mutation.
* :func:`random_search` — the honesty baseline; any frontier the
  evolutionary loop claims must beat uniform sampling at equal budget
  (the CI smoke gate checks exactly this).

Both draw every random number from one ``random.Random(seed)``, so a
search is a pure function of ``(space, seed, budget, ...)`` — rerunning
one reproduces the identical evaluation stream and frontier manifest.

:func:`explore` is the hybrid driver and the subsystem's main entry
point: it surrogate-scores every candidate the policy proposes
(milliseconds each), then promotes only the frontier-band survivors —
capped at ``sim_fraction`` of the evaluated designs — into cycle-level
simulation via ``SweepRunner``, riding the content-addressed result
cache so promoted jobs are bit-identical to (and shared with) ordinary
sweeps and resumable after interruption.  The mechanism reference
designs (baseline/DR at default provisioning, highest injection) are
always promoted, so every manifest carries the paper's headline
baseline-vs-DR comparison.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.explore.env import EvalRecord, ExploreEnv
from repro.explore.objectives import (
    OBJECTIVE_NAMES,
    OBJECTIVES,
    SENSES,
    from_result,
    score_frontiers,
    vector,
)
from repro.explore.pareto import ParetoFrontier, crowded_fronts, dominates
from repro.explore.space import Genome, SearchSpace, demo_space
from repro.sweep.cache import ResultCache
from repro.sweep.runner import SweepRunner, stall_shares

ALGORITHMS = ("nsga2", "random")
DEFAULT_BUDGET = 64
DEFAULT_POPULATION = 16
#: ceiling on the simulated share of evaluated candidates (the hybrid
#: screen's whole point); the acceptance gate checks <= 0.20.
DEFAULT_SIM_FRACTION = 0.2
#: NSGA-II variation: crossover probability per child; the per-knob
#: mutation rate is :meth:`SearchSpace.mutate`'s default, 1/n_knobs.
CROSSOVER_RATE = 0.9

ProgressFn = Callable[[str], None]


def _frontier(records: Sequence[EvalRecord]) -> ParetoFrontier:
    return ParetoFrontier(
        OBJECTIVE_NAMES, SENSES, [r.frontier_point() for r in records]
    )


def _history_entry(
    generation: int, records: Sequence[EvalRecord]
) -> Dict[str, Any]:
    """Progress snapshot: surrogate-frontier hypervolume so far."""
    frontier = _frontier(records)
    _, (hv,) = score_frontiers(
        [vector(r.objectives) for r in records], [frontier.vectors()]
    )
    return {
        "generation": generation,
        "evaluations": len(records),
        "frontier_size": len(frontier),
        "hypervolume": round(hv, 6),
    }


def _initial_population(
    space: SearchSpace, rng: random.Random, population: int
) -> List[Genome]:
    """Reference anchors first, then unique random genomes."""
    pop: List[Genome] = []
    seen = set()
    for g in space.reference_genomes():
        if g not in seen:
            seen.add(g)
            pop.append(g)
    attempts = 0
    while len(pop) < population and attempts < population * 50:
        attempts += 1
        g = space.random_genome(rng)
        if g not in seen:
            seen.add(g)
            pop.append(g)
    return pop


def _rank_population(
    genomes: Sequence[Genome], env: ExploreEnv
) -> Dict[Genome, Tuple[int, float]]:
    """Genome -> crowded-comparison key ``(front index, -crowding)`` on
    surrogate objectives (lower is better)."""
    vectors = [vector(env.evaluate(g).objectives) for g in genomes]
    return {
        genomes[i]: (front_idx, -d)
        for front_idx, front in enumerate(crowded_fronts(vectors, SENSES))
        for i, d in front
    }


def _tournament(
    rng: random.Random,
    genomes: Sequence[Genome],
    ranks: Dict[Genome, Tuple[int, float]],
) -> Genome:
    """Binary tournament under the crowded-comparison operator (the
    first draw wins a tie)."""
    a, b = rng.choice(genomes), rng.choice(genomes)
    return a if ranks[a] <= ranks[b] else b


def nsga2_search(
    env: ExploreEnv,
    *,
    budget: int = DEFAULT_BUDGET,
    population: int = DEFAULT_POPULATION,
    seed: int = 0,
) -> Tuple[List[EvalRecord], List[Dict[str, Any]]]:
    """NSGA-II over the env's space until it holds ``budget`` unique
    evaluations.

    Returns the env's records in first-seen order plus a
    per-generation history (evaluations, frontier size, hypervolume).
    """
    rng = random.Random(seed)
    space = env.space
    evaluate = env.evaluate

    pop = _initial_population(space, rng, population)
    known: set = set()  # genomes evaluated within the budget
    for g in pop:
        if env.evaluations >= budget:
            break
        evaluate(g)
        known.add(g)
    pop = [g for g in pop if g in known]
    history = [_history_entry(0, env.records())]

    generation = 0
    stall_rounds = 0
    while env.evaluations < budget and stall_rounds < 5:
        generation += 1
        ranks = _rank_population(pop, env)
        offspring: List[Genome] = []
        for _ in range(population):
            p1 = _tournament(rng, pop, ranks)
            p2 = _tournament(rng, pop, ranks)
            child = (
                space.crossover(p1, p2, rng)
                if rng.random() < CROSSOVER_RATE
                else p1
            )
            child = space.mutate(child, rng)
            # walk duplicates away from already-evaluated genomes so the
            # budget is spent on novel near-frontier designs instead of
            # memo hits (bounded, so exhausted basins still terminate)
            tries = 0
            while child in known and tries < 8:
                child = space.mutate(child, rng, rate=0.5)
                tries += 1
            offspring.append(child)

        before = env.evaluations
        for g in offspring:
            if g in known:
                continue
            if env.evaluations >= budget:
                break
            evaluate(g)
            known.add(g)
        # a whole generation of duplicates means the space (or this
        # basin) is exhausted; stop instead of spinning on the memo
        stall_rounds = stall_rounds + 1 if env.evaluations == before else 0

        # environmental selection over parents + offspring, deduplicated
        # by decoded design so inert-gene twins can't crowd the pool;
        # offspring the budget guard skipped never joined `known` and are
        # excluded, so selection cannot trigger fresh evaluations
        first_of: Dict[Tuple[str, str], Genome] = {}
        for g in pop + [g for g in offspring if g in known]:
            first_of.setdefault(evaluate(g).key, g)
        union = list(first_of.values())
        vectors = [vector(evaluate(g).objectives) for g in union]
        # whole fronts while they fit (in population order), then the
        # most isolated members of the first front that does not
        next_pop: List[Genome] = []
        for front in crowded_fronts(vectors, SENSES):
            room = population - len(next_pop)
            if len(front) > room:
                next_pop.extend(union[i] for i, _ in front[:room])
                break
            next_pop.extend(union[i] for i in sorted(i for i, _ in front))
        pop = next_pop
        history.append(_history_entry(generation, env.records()))

    return env.records(), history


def random_search(
    env: ExploreEnv,
    *,
    budget: int = DEFAULT_BUDGET,
    population: int = DEFAULT_POPULATION,
    seed: int = 0,
) -> Tuple[List[EvalRecord], List[Dict[str, Any]]]:
    """Uniform random sampling at the same budget (the control arm).

    Includes the same reference anchors as :func:`nsga2_search` so the
    two arms stay comparable point-for-point; ``population`` only sets
    the history snapshot granularity.
    """
    rng = random.Random(seed)
    space = env.space
    for g in space.reference_genomes():
        if env.evaluations >= budget:
            break
        env.evaluate(g)
    history = [_history_entry(0, env.records())]
    attempts = 0
    chunk = 0
    while env.evaluations < budget and attempts < budget * 50:
        attempts += 1
        env.evaluate(space.random_genome(rng))
        if env.evaluations // population > chunk:
            chunk = env.evaluations // population
            history.append(_history_entry(chunk, env.records()))
    if history[-1]["evaluations"] != env.evaluations:
        history.append(_history_entry(chunk + 1, env.records()))
    return env.records(), history


# ---------------------------------------------------------------------------
# the hybrid surrogate-screen + simulate driver
# ---------------------------------------------------------------------------


@dataclass
class ExploreOutcome:
    """Everything one exploration produced, manifest-ready."""

    space: str
    algo: str
    seed: int
    budget: int
    population: int
    cycles: int
    warmup: int
    surrogate_only: bool
    sim_fraction: float
    records: List[EvalRecord]
    frontier: ParetoFrontier
    surrogate_frontier: ParetoFrontier
    history: List[Dict[str, Any]] = field(default_factory=list)
    simulated: int = 0
    cached: int = 0
    failed: int = 0
    reference: Dict[str, float] = field(default_factory=dict)
    hypervolume: float = 0.0
    dr_dominance: Optional[Dict[str, Any]] = None
    wall_time_s: float = 0.0

    @property
    def evaluated(self) -> int:
        return len(self.records)

    def manifest(self) -> Dict[str, Any]:
        return {
            "schema": "explore-v1",
            "explore": {
                "space": self.space,
                "algo": self.algo,
                "seed": self.seed,
                "budget": self.budget,
                "population": self.population,
                "cycles": self.cycles,
                "warmup": self.warmup,
                "surrogate_only": self.surrogate_only,
                "sim_fraction": self.sim_fraction,
            },
            "counts": {
                "evaluated": self.evaluated,
                "simulated": self.simulated,
                "screened_out": self.evaluated - self.simulated,
                "cached": self.cached,
                "failed": self.failed,
            },
            "objectives": [o.to_dict() for o in OBJECTIVES],
            "reference": {k: round(v, 6) for k, v in self.reference.items()},
            "hypervolume": round(self.hypervolume, 6),
            "dr_dominance": self.dr_dominance,
            "history": self.history,
            "frontier": self.frontier.to_dict(),
            "surrogate_frontier": self.surrogate_frontier.to_dict(),
            "evaluations": [r.to_dict() for r in self.records],
            "wall_time_s": round(self.wall_time_s, 3),
        }


def _select_survivors(
    records: Sequence[EvalRecord],
    anchors: Sequence[Tuple[str, str]],
    max_sims: int,
) -> List[EvalRecord]:
    """Frontier-band selection of candidates worth cycle-level truth.

    Anchors first, then the surrogate objectives' crowded-comparison
    ranking, best front outward, so the promoted band spreads along the
    frontier instead of clustering.
    """
    by_key = {r.key: r for r in records}
    chosen = {key: by_key[key] for key in anchors if key in by_key}
    vectors = [vector(r.objectives) for r in records]
    for front in crowded_fronts(vectors, SENSES):
        for i, _ in front:
            if len(chosen) >= max_sims:
                return list(chosen.values())
            chosen.setdefault(records[i].key, records[i])
    return list(chosen.values())


def _dr_dominance(
    records: Sequence[EvalRecord],
    baseline_key: Optional[Tuple[str, str]],
    simulated_tier: bool,
) -> Optional[Dict[str, Any]]:
    """Does some DR design dominate the reference baseline on
    (latency p95, throughput) at the anchor's (high) injection level?"""
    pool = [
        r for r in records if r.sim_objectives is not None or not simulated_tier
    ]
    base = next((r for r in pool if r.key == baseline_key), None)
    if base is None:
        return None
    names = ("cpu_latency_p95", "throughput")
    senses = ("min", "max")
    bvec = tuple(base.final_objectives[n] for n in names)
    dominating = [
        r.config_hash
        for r in pool
        if r.mechanism == "delegated_replies"
        and r.gpu == base.gpu
        and dominates(
            tuple(r.final_objectives[n] for n in names), bvec, senses
        )
    ]
    return {
        "objectives": list(names),
        "gpu": base.gpu,
        "tier": "simulated" if simulated_tier else "surrogate",
        "baseline": {
            "config_hash": base.config_hash,
            **{n: round(float(base.final_objectives[n]), 6) for n in names},
        },
        "dominating": dominating,
        "holds": bool(dominating),
    }


def explore(
    space: Union[str, SearchSpace] = "mesh4x4",
    *,
    algo: str = "nsga2",
    budget: int = DEFAULT_BUDGET,
    population: int = DEFAULT_POPULATION,
    seed: int = 0,
    surrogate_only: bool = False,
    sim_fraction: float = DEFAULT_SIM_FRACTION,
    jobs: Optional[int] = None,
    cycles: Optional[int] = None,
    warmup: Optional[int] = None,
    cache: Union[ResultCache, str, None] = "auto",
    progress: Optional[ProgressFn] = None,
) -> ExploreOutcome:
    """Run one hybrid design-space exploration (also ``repro.api.explore``).

    A seeded NSGA-II (or uniform-random baseline) search optimising
    latency p95, throughput and the ``repro.analysis`` area/energy
    models jointly; see the module docstring for the surrogate-then-
    simulate split.  ``space`` is a named demo space (``"mesh4x4"``,
    ``"mesh8x8"``) or a custom :class:`SearchSpace`; the outcome's
    ``manifest()`` is the JSON artifact of ``python -m repro explore
    run``.  ``cache="auto"`` follows the ``run_sweep`` convention:
    persist to disk only when ``REPRO_SWEEP_CACHE`` is set.  With
    ``surrogate_only`` no simulation happens and the frontier is built
    from surrogate scores alone (the CI smoke mode).
    """
    t0 = time.perf_counter()
    space = demo_space(space) if isinstance(space, str) else space
    if algo not in ALGORITHMS:
        raise ValueError(f"unknown algo {algo!r}; choose from {ALGORITHMS}")
    env = ExploreEnv(space, cycles=cycles, warmup=warmup)

    if progress:
        progress(
            f"{space.name}: {algo} search, budget {budget} "
            f"(space size {space.size})"
        )
    if algo == "nsga2":
        records, history = nsga2_search(
            env, budget=budget, population=population, seed=seed
        )
    else:
        records, history = random_search(
            env, budget=budget, population=population, seed=seed
        )

    surrogate_frontier = _frontier(records)

    anchors = [env.evaluate(g) for g in space.reference_genomes()]
    anchor_keys = [r.key for r in anchors]
    baseline_key = next(
        (r.key for r in anchors if r.mechanism == "baseline"), None
    )

    simulated = cached = failed = 0
    if not surrogate_only:
        max_sims = max(len(anchor_keys), int(sim_fraction * len(records)))
        max_sims = min(max_sims, len(records))
        survivors = _select_survivors(records, anchor_keys, max_sims)
        specs = {r.key: env.spec(r.genome) for r in survivors}
        if progress:
            progress(
                f"simulating {len(survivors)}/{len(records)} survivors "
                f"(cap {sim_fraction:.0%})"
            )
        runner = SweepRunner(cache=cache, jobs=jobs)
        try:
            outcomes = runner.run(list(specs.values()))
        finally:
            runner.close()
        for r in survivors:
            spec = specs[r.key]
            out = outcomes.get(spec.key())
            if out is None or out.result is None:
                failed += 1
                continue
            cfg = spec.system_config()
            r.sim_objectives = from_result(cfg, out.result)
            r.sim_metrics = {
                "cpu_latency_avg": out.result.cpu_latency_avg,
                "gpu_latency_p95": out.result.gpu_latency_p95,
                "mem_blocking_rate": out.result.mem_blocking_rate,
            }
            for group, shares in stall_shares(
                out.result.stall_breakdown
            ).items():
                for cls, share in shares.items():
                    r.sim_metrics[f"stall_share.{group}.{cls}"] = share
            r.cached = out.status == "cached"
            simulated += 1
            cached += int(r.cached)

    # the simulated tier is the frontier once anything was simulated;
    # until then (surrogate-only, or every job failed) the surrogate one
    tier = [r for r in records if r.sim_objectives is not None]
    frontier = _frontier(tier) if tier else surrogate_frontier
    ref_vec, (hv,) = score_frontiers(
        [vector(r.objectives) for r in records], [frontier.vectors()]
    )
    dr_dom = _dr_dominance(records, baseline_key, simulated_tier=bool(tier))

    return ExploreOutcome(
        space=space.name,
        algo=algo,
        seed=seed,
        budget=budget,
        population=population,
        cycles=env.cycles,
        warmup=env.warmup,
        surrogate_only=surrogate_only,
        sim_fraction=sim_fraction,
        records=records,
        frontier=frontier,
        surrogate_frontier=surrogate_frontier,
        history=history,
        simulated=simulated,
        cached=cached,
        failed=failed,
        reference=dict(zip(OBJECTIVE_NAMES, ref_vec)),
        hypervolume=hv,
        dr_dominance=dr_dom,
        wall_time_s=time.perf_counter() - t0,
    )
