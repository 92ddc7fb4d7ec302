"""Pareto mechanics: dominance, non-dominated sorting, hypervolume.

Everything in this module is pure multi-objective bookkeeping — no
simulator, no search policy.  Objective vectors are plain sequences of
floats; each position has a *sense* ("min" or "max") that says which
direction is better.  Internally every comparison normalises to
minimisation (max objectives are negated) so the textbook definitions
apply unchanged.

The hypervolume indicator follows the slicing recursion (sweep the last
objective, recurse on the projection): exact, deterministic, and fast
enough for the front sizes design-space search produces (tens of points,
up to four objectives).  2D closed-form cases are pinned by unit tests.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

Vector = Sequence[float]

#: default nadir margin: the shared reference point sits 10% beyond the
#: worst observed value per objective, so boundary points contribute
#: nonzero volume.
REFERENCE_MARGIN = 0.1


def _signs(senses: Sequence[str]) -> Tuple[float, ...]:
    out = []
    for s in senses:
        if s not in ("min", "max"):
            raise ValueError(f"objective sense must be min or max, got {s!r}")
        out.append(1.0 if s == "min" else -1.0)
    return tuple(out)


def _minimised(vec: Vector, signs: Sequence[float]) -> Tuple[float, ...]:
    return tuple(v * s for v, s in zip(vec, signs))


def dominates(a: Vector, b: Vector, senses: Sequence[str]) -> bool:
    """True iff ``a`` Pareto-dominates ``b``.

    At least as good in every objective and strictly better in one.
    """
    signs = _signs(senses)
    am = _minimised(a, signs)
    bm = _minimised(b, signs)
    return all(x <= y for x, y in zip(am, bm)) and any(
        x < y for x, y in zip(am, bm)
    )


def non_dominated_sort(rows: Sequence[Vector], senses: Sequence[str]) -> List[List[int]]:
    """NSGA-II fast non-dominated sort: indices grouped into fronts.

    Front 0 is the Pareto frontier of ``rows``; front *k* is the frontier
    once fronts ``< k`` are removed.  Order within a front preserves the
    input order, keeping downstream selection deterministic.
    """
    signs = _signs(senses)
    pts = [_minimised(r, signs) for r in rows]
    n = len(pts)
    dominated_by: List[List[int]] = [[] for _ in range(n)]
    dom_count = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            a, b = pts[i], pts[j]
            a_le = all(x <= y for x, y in zip(a, b))
            b_le = all(y <= x for x, y in zip(a, b))
            if a_le and not b_le:
                dominated_by[i].append(j)
                dom_count[j] += 1
            elif b_le and not a_le:
                dominated_by[j].append(i)
                dom_count[i] += 1
    fronts: List[List[int]] = []
    current = [i for i in range(n) if dom_count[i] == 0]
    while current:
        fronts.append(current)
        nxt: List[int] = []
        for i in current:
            for j in dominated_by[i]:
                dom_count[j] -= 1
                if dom_count[j] == 0:
                    nxt.append(j)
        nxt.sort()
        current = nxt
    return fronts


def crowding_distance(rows: Sequence[Vector]) -> List[float]:
    """Crowding distance of each point within one front.

    Boundary points per objective get ``inf``; interior points the sum of
    normalised neighbour gaps.  Senses do not matter here — distance is
    symmetric under negation.
    """
    n = len(rows)
    if n == 0:
        return []
    if n <= 2:
        return [float("inf")] * n
    m = len(rows[0])
    dist = [0.0] * n
    for k in range(m):
        order = sorted(range(n), key=lambda i: (rows[i][k], i))
        lo, hi = rows[order[0]][k], rows[order[-1]][k]
        dist[order[0]] = dist[order[-1]] = float("inf")
        span = hi - lo
        if span <= 0.0:
            continue
        for pos in range(1, n - 1):
            i = order[pos]
            gap = rows[order[pos + 1]][k] - rows[order[pos - 1]][k]
            if dist[i] != float("inf"):
                dist[i] += gap / span
    return dist


def crowded_fronts(
    rows: Sequence[Vector], senses: Sequence[str]
) -> List[List[Tuple[int, float]]]:
    """NSGA-II's crowded-comparison ranking of ``rows``.

    The fronts of :func:`non_dominated_sort`, best first, each as
    ``(row index, crowding distance)`` pairs ordered most isolated first,
    ties by index.  Environmental selection, the tournaments and the
    simulation-promotion band all rank by it.
    """
    ranked = []
    for front in non_dominated_sort(rows, senses):
        crowd = crowding_distance([rows[i] for i in front])
        ranked.append(sorted(zip(front, crowd), key=lambda p: (-p[1], p[0])))
    return ranked


def default_reference(
    rows: Sequence[Vector],
    senses: Sequence[str],
    margin: float = REFERENCE_MARGIN,
) -> Tuple[float, ...]:
    """A nadir-plus-margin reference point for :func:`hypervolume`.

    Per objective: the worst observed value pushed ``margin`` of the
    observed span (or of its own magnitude, for degenerate spans) further
    in the bad direction.  Computed over *all* evaluated points — not just
    a frontier — so two searches over the same space can share it.
    """
    if not rows:
        raise ValueError("cannot derive a reference point from no rows")
    signs = _signs(senses)
    pts = [_minimised(r, signs) for r in rows]
    ref = []
    for k in range(len(signs)):
        vals = [p[k] for p in pts]
        worst, best = max(vals), min(vals)
        span = worst - best
        pad = margin * (span if span > 0.0 else max(abs(worst), 1.0))
        ref.append((worst + pad) * signs[k])
    return tuple(ref)


def hypervolume(
    rows: Sequence[Vector],
    reference: Vector,
    senses: Sequence[str],
) -> float:
    """Exact hypervolume dominated by ``rows`` up to ``reference``.

    Points not strictly better than the reference in every objective
    contribute nothing.  For two objectives this reduces to the familiar
    staircase sum; higher dimensions use the slicing recursion.
    """
    signs = _signs(senses)
    ref = _minimised(reference, signs)
    pts = [_minimised(r, signs) for r in rows]
    return _hv(pts, ref)


def _hv(pts: List[Tuple[float, ...]], ref: Tuple[float, ...]) -> float:
    d = len(ref)
    pts = [p for p in pts if all(p[k] < ref[k] for k in range(d))]
    if not pts:
        return 0.0
    if d == 1:
        return ref[0] - min(p[0] for p in pts)
    # sweep the last objective from best to worst; each slab's depth times
    # the (d-1)-dimensional volume of every point at least that good.
    pts.sort(key=lambda p: p[-1])
    total = 0.0
    for i, p in enumerate(pts):
        upper = pts[i + 1][-1] if i + 1 < len(pts) else ref[-1]
        depth = upper - p[-1]
        if depth <= 0.0:
            continue
        total += depth * _hv([q[:-1] for q in pts[: i + 1]], ref[:-1])
    return total


# ---------------------------------------------------------------------------
# the frontier container
# ---------------------------------------------------------------------------


@dataclass
class FrontierPoint:
    """One design on (or considered for) the frontier."""

    config_hash: str
    gpu: str
    cpu: str
    mechanism: str
    #: knob name -> chosen value (the decoded genome).
    values: Dict[str, Any]
    #: objective name -> value, in the frontier's objective order.
    objectives: Dict[str, float]
    #: ``surrogate`` (scored by repro.model) or ``simulated``.
    source: str = "surrogate"
    #: sweep cache key when the point was simulated.
    job_key: Optional[str] = None
    #: headline metrics beyond the objectives (demand_rho, blocking, ...).
    metrics: Dict[str, float] = field(default_factory=dict)

    def vector(self, names: Sequence[str]) -> Tuple[float, ...]:
        return tuple(float(self.objectives[n]) for n in names)

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FrontierPoint":
        return cls(
            config_hash=data["config_hash"],
            gpu=data["gpu"],
            cpu=data.get("cpu", ""),
            mechanism=data.get("mechanism", ""),
            values=dict(data.get("values", {})),
            objectives=dict(data["objectives"]),
            source=data.get("source", "surrogate"),
            job_key=data.get("job_key"),
            metrics=dict(data.get("metrics", {})),
        )


class ParetoFrontier:
    """The Pareto frontier of some :class:`FrontierPoint` s.

    The one frontier rule: front 0 of :func:`non_dominated_sort`, minus
    any point whose objective vector equals an earlier point's.  Members
    keep their given order, so a frontier built from a deterministic
    evaluation stream serialises identically run to run.
    """

    def __init__(
        self,
        objective_names: Sequence[str],
        senses: Sequence[str],
        points: Sequence[FrontierPoint] = (),
    ) -> None:
        if len(objective_names) != len(senses):
            raise ValueError("one sense per objective required")
        self.objective_names = tuple(objective_names)
        self.senses = tuple(senses)
        vectors = [p.vector(self.objective_names) for p in points]
        fronts = non_dominated_sort(vectors, self.senses)
        seen = set()
        self.points: List[FrontierPoint] = []
        for i in fronts[0] if fronts else ():
            if vectors[i] not in seen:
                seen.add(vectors[i])
                self.points.append(points[i])

    def __len__(self) -> int:
        return len(self.points)

    def vectors(self) -> List[Tuple[float, ...]]:
        return [p.vector(self.objective_names) for p in self.points]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "objectives": [
                {"name": n, "sense": s}
                for n, s in zip(self.objective_names, self.senses)
            ],
            "points": [p.to_dict() for p in self.points],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ParetoFrontier":
        objs = data["objectives"]
        return cls(
            [o["name"] for o in objs],
            [o["sense"] for o in objs],
            [FrontierPoint.from_dict(p) for p in data.get("points", [])],
        )
