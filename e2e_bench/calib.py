"""Host-time measurement: calibration spins, timed segments, estimators.

Host time on the shared 2-vCPU boxes this benchmark runs on swings by
20-40% for seconds at a time (identical 0.8 s simulations measured
0.72-1.12 s over 80 back-to-back reps), and the noise only ever *adds*
time.  Two things make the numbers steady enough to gate on:

* the timed body of a rep is cut into *segments* (100 simulated cycles
  each for the single-simulation workloads) with a short fixed
  calibration spin between segments; a segment's *normalised* seconds
  are ``wall * reference_spin / mean(spin_before, spin_after)``, so the
  unit is "seconds on a reference-speed machine";
* segment ``i`` is the same deterministic work in every rep, so the
  headline time is the sum over segments of the *lower quartile across
  reps* of that segment — a slow second on the host is voted out segment
  by segment instead of poisoning a whole rep.

The spin is half a 64-bit LCG loop and half a lap round a ring of small
objects (deque, dict and attribute traffic over ~1 MB).  An LCG alone
stays in registers and the first-level cache and misses most of what
slows an object-heavy simulator down: over 150 recorded reps of one
0.75 s simulation, grouped into pseudo-runs of seven, the median of raw
rep walls spread (inter-quartile, as a share of the median) 18.4%
between pseudo-runs, the median of LCG-normalised reps 9.5%, the
per-segment lower quartile with the LCG 6.4% and with the object ring
3.6-3.9%.
"""

from __future__ import annotations

import random
import statistics
from collections import deque
from time import perf_counter
from typing import Callable, Dict, List, Sequence, Tuple

#: reference seconds of the spin — the quiet-machine speed of the box the
#: benchmark was defined on, where a lap between two segments finds the
#: ring evicted from the cache.  A constant: changing it rescales every
#: normalised number ever recorded.
CAL_REF_S = 0.0027
_LCG_ITERS = 10_000
_RING_NODES = 3_000


class _Node:
    __slots__ = ("nxt", "val", "q", "d")

    def __init__(self, i: int) -> None:
        self.nxt = self
        self.val = i
        self.q = deque((i, i + 1))
        self.d = {"a": i, "b": i + 1}


def _build_ring() -> _Node:
    """A ring of small objects linked in a fixed shuffled order, so a lap
    is a pointer chase and not a sequential walk."""
    nodes = [_Node(i) for i in range(_RING_NODES)]
    order = list(range(_RING_NODES))
    random.Random(0).shuffle(order)
    for here, there in zip(order, order[1:] + order[:1]):
        nodes[here].nxt = nodes[there]
    return nodes[0]


#: built once per process; a lap leaves its shape unchanged
_RING = _build_ring()


def spin() -> float:
    """Wall seconds of a fixed pure-Python calibration loop (~2.7 ms:
    long enough to time, <5% next to a 100-cycle segment)."""
    t0 = perf_counter()
    x = 1
    for _ in range(_LCG_ITERS):
        x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
    node = _RING
    acc = 0
    for _ in range(_RING_NODES):
        q = node.q
        q.append(node.val)
        acc += q.popleft()
        d = node.d
        d["a"] = acc & 1023
        acc += d["b"]
        node = node.nxt
    return perf_counter() - t0


class Segments:
    """The timed body of one rep: labelled segments with spins between.

    ``timed(label, fn, *args)`` runs ``fn``, then one spin; the spin
    after segment ``i`` is the spin before segment ``i + 1``.
    """

    def __init__(self) -> None:
        self.labels: List[str] = []
        self.wall_s: List[float] = []
        self.spin_s: List[float] = [spin()]

    def timed(self, label: str, fn: Callable, *args):
        t0 = perf_counter()
        out = fn(*args)
        wall = perf_counter() - t0
        self.spin_s.append(spin())
        self.labels.append(label)
        self.wall_s.append(wall)
        return out

    def factors(self) -> List[float]:
        """Per-segment multiplier from wall to normalised seconds."""
        s = self.spin_s
        return [2.0 * CAL_REF_S / (s[i] + s[i + 1]) for i in range(len(self.wall_s))]

    def normalised(self) -> List[float]:
        return [w * f for w, f in zip(self.wall_s, self.factors())]


def lower_quartile(values: Sequence[float]) -> float:
    """The element a quarter of the way up the sorted values (the
    minimum for fewer than five)."""
    ordered = sorted(values)
    return ordered[(len(ordered) - 1) // 4]


def quiet_seconds(
    reps: Sequence[Segments], keep: Callable[[str], bool] = lambda label: True
) -> float:
    """Sum over segments of the lower quartile across reps.

    Every rep must have timed the same segments in the same order;
    ``keep`` restricts the sum to segments by label.
    """
    labels = reps[0].labels
    for rep in reps:
        if rep.labels != labels:
            raise ValueError("reps timed different segments")
    columns = zip(*(rep.normalised() for rep in reps))
    return sum(
        lower_quartile(col) for label, col in zip(labels, columns) if keep(label)
    )


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles, minimum and count of per-rep values."""
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {
        "q1": q1,
        "median": med,
        "q3": q3,
        "min": min(values),
        "n": len(values),
    }


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    s = summary(values)
    return (s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0


def timed_setup(fn: Callable) -> Tuple[object, float]:
    """Run a set-up function between two spins; returns its result and
    its normalised seconds."""
    seg = Segments()
    out = seg.timed("setup", fn)
    return out, seg.normalised()[0]
