"""Closed-form priority queueing for one NoC link.

Each directed link (router-to-router, injection or ejection) is modelled
as a single server shared by the two traffic classes, CPU and GPU, with
non-preemptive head-of-line priority for CPU — Table I's CPU-over-GPU
priority, which every arbiter of the simulated routers applies cycle by
cycle.  Packet
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
from typing import Tuple

#: exponential-tail factor: for an exponential sojourn time the 95th
#: percentile is ``ln(20) ~ 3.0`` times the mean.
P95_FACTOR = math.log(20.0)


def cpu_gpu_waits(
    rho_cpu: float, rho_gpu: float, residual: float
) -> Tuple[float, float]:
    """Mean queueing waits ``(CPU, GPU)`` at one link, CPU served first.

    ``rho_*`` is each class's utilisation (its ``sum of rate_i *
    service_i``, so 1-flit requests and 9-flit replies mix exactly) and
    ``residual`` is :math:`R`, half the ``sum of rate_i * service_i^2``
    over both classes.  ``math.inf`` for a class whose priority level is
    saturated.  The GPU's remaining capacity is taken as ``(1 - rho_cpu)
    - rho_gpu``, in that order: every prediction depends on the bits.
    """
    rem_cpu = 1.0 - rho_cpu
    if rem_cpu <= 0.0:
        return math.inf, math.inf
    rem_all = rem_cpu - rho_gpu
    return (
        residual / rem_cpu,
        residual / (rem_cpu * rem_all) if rem_all > 0.0 else math.inf,
    )


def p95_of_mean(mean: float) -> float:
    """Approximate 95th percentile of a sojourn with the given mean.

    Uses the exponential-tail approximation (p95 = mean * ln 20); real
    latency distributions under priority scheduling are heavier for the
    low-priority class and lighter for the high-priority one, so this is
    a shape assumption, not a guarantee.
    """
    return mean * P95_FACTOR
