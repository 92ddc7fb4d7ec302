"""Multi-objective design-space exploration with a Pareto frontier.

The paper evaluates Delegated Replies as one point in a much larger
NoC/system design space; this subsystem turns the reproduction into the
design tool that searches that space.  The pieces:

* :mod:`repro.explore.space` — typed knob spaces over ``SystemConfig``
  (:class:`SearchSpace`, :class:`Knob`) with genome encode/decode.
* :mod:`repro.explore.objectives` — the shared objective vector
  (latency p95, throughput, DSENT/CACTI-style area, energy/inst).
* :mod:`repro.explore.pareto` — dominance, non-dominated sorting,
  crowding, hypervolume and the :class:`ParetoFrontier` container.
* :mod:`repro.explore.env` — :class:`ExploreEnv`: a space bound to a
  window; memoised surrogate ``evaluate`` + sweep ``spec``.
* :mod:`repro.explore.search` — seeded NSGA-II + random-search baseline
  and the hybrid :func:`explore` driver (surrogate-screen everything,
  simulate only frontier-band survivors through the sweep cache).

``python -m repro explore {run,frontier,show}`` is the CLI face;
:func:`repro.api.explore` the library one.
"""

from repro.explore.env import EvalRecord, ExploreEnv
from repro.explore.objectives import OBJECTIVE_NAMES, OBJECTIVES, Objective
from repro.explore.pareto import (
    FrontierPoint,
    ParetoFrontier,
    crowding_distance,
    dominates,
    hypervolume,
    non_dominated_sort,
)
from repro.explore.search import (
    ALGORITHMS,
    ExploreOutcome,
    explore,
    nsga2_search,
    random_search,
)
from repro.explore.space import SPACES, Knob, SearchSpace, demo_space

__all__ = [
    "ALGORITHMS",
    "EvalRecord",
    "ExploreEnv",
    "ExploreOutcome",
    "FrontierPoint",
    "Knob",
    "OBJECTIVES",
    "OBJECTIVE_NAMES",
    "Objective",
    "ParetoFrontier",
    "SPACES",
    "SearchSpace",
    "crowding_distance",
    "demo_space",
    "dominates",
    "explore",
    "hypervolume",
    "non_dominated_sort",
    "nsga2_search",
    "random_search",
]
