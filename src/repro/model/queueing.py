"""Closed-form priority queueing for one NoC link.

Each directed link (router-to-router, injection or ejection) is modelled
as a single server shared by the two traffic classes, CPU and GPU, with
non-preemptive head-of-line priority for CPU — the switch-allocation
policy ``NocConfig.cpu_priority`` implements cycle by cycle.  Packet
service time is the link occupancy of one worm: ``size_flits`` cycles at
one flit per cycle, divided by the link's bandwidth factor.

The waiting times are the standard M/G/1 non-preemptive priority
results.  With per-class arrival rate :math:`\\lambda_c`, mean service
:math:`E[S_c]` and second moment :math:`E[S_c^2]`:

.. math::

    R = \\tfrac{1}{2} \\sum_c \\lambda_c E[S_c^2], \\qquad
    W_c = \\frac{R}{(1 - \\rho_{<c})(1 - \\rho_{\\le c})}

where :math:`\\rho_{<c}` sums the utilisation of classes with strictly
higher priority.  A saturated class (denominator :math:`\\le 0`) gets an
infinite wait; callers cap it against the finite buffering that bounds
real queues (see :mod:`repro.model.compose`).

Poisson arrivals are an approximation — wormhole networks batch flits
into worms and closed-loop endpoints self-throttle — but the shape of
the curve (linear at low load, diverging as :math:`\\rho \\to 1`) is what
the surrogate needs; DESIGN.md section 10 discusses where it bends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

#: exponential-tail factor: for an exponential sojourn time the 95th
#: percentile is ``ln(20) ~ 3.0`` times the mean.
P95_FACTOR = math.log(20.0)


@dataclass
class ClassLoad:
    """Aggregate per-class arrival process at one link.

    ``rate`` is packets/cycle; ``work`` and ``work_sq`` accumulate
    ``rate * E[S]`` and ``rate * E[S^2]`` so heterogeneous packet sizes
    (1-flit requests, 9-flit replies) mix exactly.
    """

    rate: float = 0.0
    work: float = 0.0       # sum of rate_i * service_i       (= rho)
    work_sq: float = 0.0    # sum of rate_i * service_i^2

    def add(self, rate: float, service_cycles: float) -> None:
        self.rate += rate
        self.work += rate * service_cycles
        self.work_sq += rate * service_cycles * service_cycles

    @property
    def rho(self) -> float:
        return self.work


def priority_waits(classes: Sequence[ClassLoad]) -> List[float]:
    """Mean queueing wait per class, highest priority first.

    ``classes[0]`` (CPU) is served ahead of ``classes[1]`` (GPU) and so
    on.  Returns one wait per class; ``math.inf`` for classes whose
    priority level is saturated.
    """
    residual = 0.5 * sum(c.work_sq for c in classes)
    waits: List[float] = []
    rho_above = 0.0
    for cls in classes:
        rho_upto = rho_above + cls.rho
        denom = (1.0 - rho_above) * (1.0 - rho_upto)
        if denom <= 0.0:
            waits.append(math.inf)
        else:
            waits.append(residual / denom)
        rho_above = rho_upto
    return waits


def p95_of_mean(mean: float) -> float:
    """Approximate 95th percentile of a sojourn with the given mean.

    Uses the exponential-tail approximation (p95 = mean * ln 20); real
    latency distributions under priority scheduling are heavier for the
    low-priority class and lighter for the high-priority one, so this is
    a shape assumption, not a guarantee.
    """
    return mean * P95_FACTOR
