"""Analytical surrogate performance model (millisecond what-if path).

``repro.model`` answers the questions the simulator answers — per-class
latency, throughput, where the network clogs — in milliseconds instead
of minutes, using per-link offered loads derived from the routing
tables, M/G/1 priority queueing per link, and a closed-loop fixed point
that captures the self-throttling saturated regime the paper studies.

Entry points:

- :func:`predict` — one point, one :class:`Prediction`.
- :func:`repro.model.validate.validate` — surrogate vs simulator on the
  fig05/fig11/fig16 grids (error + rank correlation report).
- :func:`repro.model.saturation.screen` — the screening pass behind
  ``repro sweep run --screen surrogate`` and ``repro model screen``
  (:func:`~repro.model.saturation.keep_mask` is its policy).
- ``python -m repro model {predict,validate,screen}``.
"""

from repro.model.compose import Prediction, predict
from repro.model.queueing import cpu_gpu_waits, p95_of_mean
from repro.model.saturation import SaturationReport, assess, keep_mask, screen
from repro.model.validate import ValidationReport, spearman, validate

__all__ = [
    "Prediction",
    "SaturationReport",
    "ValidationReport",
    "assess",
    "cpu_gpu_waits",
    "keep_mask",
    "p95_of_mean",
    "predict",
    "screen",
    "spearman",
    "validate",
]
