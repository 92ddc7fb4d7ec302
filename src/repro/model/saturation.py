"""Saturation/clogging assessment and the surrogate screening policy.

A :class:`~repro.model.compose.Prediction` carries two utilisation
figures per point: ``max_rho`` (carried load after the closed loop
throttles, never above ``RHO_CAP``) and ``demand_rho`` (what the
endpoints *wanted* to push through the worst resource).  ``demand_rho``
is the interesting one — it says how deep into the clogged regime the
point operates, which is both the clogging verdict and the score the
hybrid sweep screens on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

from repro.model.compose import RHO_CAP, Prediction, predict
from repro.sweep.jobs import JobSpec

#: carried utilisation above which a link is reported as clogged.
CLOGGED_RHO = 0.90
#: carried utilisation above which a link is "near saturation".
NEAR_RHO = 0.70

#: default screening band: simulate points whose demand utilisation is
#: within 35% of the saturation knee (or beyond it).
DEFAULT_BAND = 0.35


@dataclass
class SaturationReport:
    """Link-level clogging verdict for one prediction."""

    saturated: bool
    demand_rho: float
    bottleneck: str
    clogged_links: Dict[str, float] = field(default_factory=dict)
    near_links: Dict[str, float] = field(default_factory=dict)
    verdict: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "saturated": self.saturated,
            "demand_rho": self.demand_rho,
            "bottleneck": self.bottleneck,
            "clogged_links": dict(self.clogged_links),
            "near_links": dict(self.near_links),
            "verdict": self.verdict,
        }


def assess(pred: Prediction) -> SaturationReport:
    """Classify a prediction's hot links into clogged / near-saturated."""
    clogged = {k: v for k, v in pred.link_rho.items() if v >= CLOGGED_RHO}
    near = {
        k: v
        for k, v in pred.link_rho.items()
        if NEAR_RHO <= v < CLOGGED_RHO
    }
    if pred.saturated:
        verdict = (
            f"clogged: demand {pred.demand_rho:.2f}x the capacity of "
            f"{pred.bottleneck or 'the bottleneck link'}"
        )
    elif near:
        verdict = f"near saturation ({len(near)} links above {NEAR_RHO:g})"
    else:
        verdict = "unsaturated"
    return SaturationReport(
        saturated=pred.saturated,
        demand_rho=pred.demand_rho,
        bottleneck=pred.bottleneck,
        clogged_links=clogged,
        near_links=near,
        verdict=verdict,
    )


def screening_score(pred: Prediction) -> float:
    """The scalar the hybrid sweep ranks grid points by."""
    return pred.demand_rho


def keep_mask(preds: Sequence[Prediction], band: float = DEFAULT_BAND) -> List[bool]:
    """Which grid points deserve a real simulation.

    Keeps every point whose demand utilisation reaches within ``band``
    of the saturation knee (``RHO_CAP``) — i.e. everything at or past
    the onset of clogging plus a guard band below it so the knee itself
    is bracketed — and always anchors the sweep with the lowest-scoring
    point as an unclogged far-field reference.
    """
    if not preds:
        return []
    threshold = (1.0 - band) * RHO_CAP
    keep = [screening_score(p) >= threshold for p in preds]
    anchor = min(range(len(preds)), key=lambda i: screening_score(preds[i]))
    keep[anchor] = True
    return keep


@dataclass
class ScreenDecision:
    """A screening pass over a sweep's specs: every spec's prediction
    and whether it deserves a real simulation."""

    specs: Sequence[JobSpec]
    predictions: List[Prediction]
    keep: List[bool]
    band: float

    @property
    def kept(self) -> List[JobSpec]:
        return [s for s, keep in zip(self.specs, self.keep) if keep]

    @property
    def skipped(self) -> List[Tuple[JobSpec, Prediction]]:
        return [
            (s, p)
            for s, p, keep in zip(self.specs, self.predictions, self.keep)
            if not keep
        ]

    def skipped_records(self) -> List[Dict[str, Any]]:
        """Manifest-ready records of the screened-out points."""
        return [
            {
                "key": spec.key(),
                "label": list(spec.label) or [spec.describe()],
                "demand_rho": round(pred.demand_rho, 3),
                "predicted_cpu_latency": round(pred.cpu_latency_avg, 1),
            }
            for spec, pred in self.skipped
        ]


def screen(specs: Sequence[JobSpec], band: float = DEFAULT_BAND) -> ScreenDecision:
    """Partition specs with the surrogate (the hybrid sweep's first half).

    Predicts every spec (milliseconds per point) and keeps the points
    :func:`keep_mask` keeps.  The caller simulates ``decision.kept``;
    ``decision.skipped`` says what was screened out, for the manifest.
    Screening never touches a cache or a spec, so the jobs that do run
    produce bit-identical results to an unscreened sweep.
    """
    predictions = [predict(s.system_config(), s.gpu, s.cpu) for s in specs]
    return ScreenDecision(
        specs, predictions, keep_mask(predictions, band=band), band
    )
