"""The paper's claims, one row each, and the one rule that judges them.

:data:`CLAIMS` is the only place a paper statement is written:
``benchmarks/test_claims.py`` judges every row on its figure's result,
``python -m repro experiment NAME`` prints the verdicts under the table,
and EXPERIMENTS.md's ledger is :func:`render_markdown` of the loop's
``claims.json``.

A ``path`` names numbers in the figure's ``ExperimentResult``:
``data.KEY``; ``LABEL.COL``, one row's cell; ``GLOB.COL``, that cell in
every row whose label matches a ``*`` glob (the check must hold on each);
``mean(GLOB.COL)``, ``max(...)``, ``min(...)`` over those rows, while
``max``/``min`` of several paths pick per row; ``rank(LABEL.COL)``, the
row's 1-based place with the column sorted high to low; ``A + B``.
The ``kind`` judges it, ``op`` being ``>``, ``>=``, ``<`` or ``<=``:
``sign`` is ``value op bound``; ``ordering`` is ``value op other``, with
``tol`` the relative slack toward the other side; ``band`` is
``|value - bound| op tol``; ``ratio`` is ``value / other op bound``.
A path naming a benchmark the run left out reads ``n/a (missing X)``;
any other label, column (on any row a glob matches) or data key the
result lacks reads ``✗ (missing X)``.  A NaN among the numbers a claim
reads (a mean of nothing, a ratio over a zero base) or a zero
denominator of a ``ratio`` claim reads ``✗ (unmeasured)``.  A claim
cannot pass unmeasured.
"""

from __future__ import annotations

import dataclasses
import math
import operator
import re
from fnmatch import fnmatchcase
from functools import reduce
from typing import Dict, List, Optional, Union

from repro.analysis.report import amean
from repro.experiments.common import ExperimentResult
from repro.workloads import CPU_BENCHMARKS, GPU_BENCHMARKS

KINDS = ("sign", "ordering", "band", "ratio")
OPS = {">": operator.gt, ">=": operator.ge, "<": operator.lt,
       "<=": operator.le}
#: the row labels a run may leave out: its benchmarks and co-runners
BENCHMARKS = frozenset(GPU_BENCHMARKS) | frozenset(CPU_BENCHMARKS)


@dataclasses.dataclass(frozen=True)
class Claim:
    """One paper claim and the check that judges a figure's result by it."""

    figure: str  # the ALL_EXPERIMENTS module whose result is judged
    paper: str  # what the paper states
    path: str
    kind: str
    op: str = ">"
    bound: float = 1.0  # sign: constant; band: target; ratio: quotient's
    other: str = ""  # ordering: compared path; ratio: denominator
    tol: float = 0.0  # ordering: relative slack; band: half-width


_TOPOLOGY = ("changing the topology barely moves GPU performance; "
             "doubling bandwidth helps every topology")
_DR_MEAN = "DR +25.7% GPU IPC on average over the baseline"
_DR_ON_DYNEB = "DR adds +23.5% on top of DynEB under round-robin CTAs"
_EXTRA_AREA = "DR costs ~5% of the 2x NoC's extra area"
_FRQ_8 = "8 FRQ entries capture the benefit (Section IV)"

CLAIMS = (
    Claim("fig02_locality", ">57% of L1 misses are in a remote L1 on average",
          "data.mean", "sign", bound=0.30),
    Claim("fig02_locality", "HS has high locality (>60%)",
          "HS.remote_l1_fraction", "sign", bound=0.5),
    Claim("fig02_locality", "NN has high locality (>60%)",
          "NN.remote_l1_fraction", "sign", bound=0.5),
    Claim("fig02_locality", "SC has low locality", "SC.remote_l1_fraction",
          "ordering", op="<", other="HS.remote_l1_fraction"),
    Claim("fig05_topology", "memory nodes are blocked 72-79% of cycles",
          "*-1x.mem_blocking_rate", "sign", bound=0.5),
    *(Claim("fig05_topology", _TOPOLOGY, f"{t}-2x.hm_gpu_speedup", "ratio",
            other=f"{t}-1x.hm_gpu_speedup", bound=1.08)
      for t in ("mesh", "crossbar", "flattened_butterfly", "dragonfly")),
    Claim("fig05_topology", _TOPOLOGY, "max(crossbar-1x.hm_gpu_speedup, "
          "flattened_butterfly-1x.hm_gpu_speedup, "
          "dragonfly-1x.hm_gpu_speedup)", "ordering", op="<",
          other="mesh-2x.hm_gpu_speedup", tol=0.1),
    Claim("fig05_topology", "the nominal mesh is the reference",
          "mesh-1x.hm_gpu_speedup", "band", op="<="),
    Claim("fig06_avcp", "AVCP: best case +3%, HM flat",
          "*.avcp_vs_symmetric", "sign", bound=0.75),
    Claim("fig06_avcp", "AVCP: best case +3%, HM flat",
          "*.avcp_vs_symmetric", "sign", op="<", bound=1.25),
    Claim("fig06_avcp", "BP is write-heavy: reply-heavy splits hurt it",
          "BP.1req+3rep", "ordering", op="<=", other="BP.2req+2rep", tol=0.1),
    *(Claim("fig07_adaptive", "adaptive routing does not beat CDR; "
            "it slightly hurts", f"mean(*.{p})", "sign", op="<", bound=1.10)
      for p in ("dyxy", "footprint", "hare")),
    *(Claim("fig09_layout", "Baseline YX-XY is the reference",
            f"Baseline YX-XY.{col}", "band", op="<=")
      for col in ("gpu_perf", "cpu_perf")),
    Claim("fig09_layout", "Baseline YX-XY is the only layout good at both",
          "min(*.gpu_perf, *.cpu_perf)", "sign", op="<", bound=1.10),
    Claim("fig09_layout", "layout C favours CPUs",
          "C XY-YX.cpu_perf", "sign", bound=0.55),
    Claim("fig09_layout", "layout B needs XY-YX (memory-row congestion)",
          "B XY-XY.gpu_perf", "ordering", op="<", other="B XY-YX.gpu_perf"),
    Claim("fig10_gpu_perf", "DR +25.7% vs RP +10.1% GPU IPC on average",
          "data.dr_mean_speedup", "ordering", other="data.rp_mean_speedup"),
    Claim("fig10_gpu_perf", "RP +10.1% GPU IPC on average",
          "data.rp_mean_speedup", "sign"),
    Claim("fig10_gpu_perf", _DR_MEAN,
          "data.dr_mean_speedup", "sign", bound=1.10),
    Claim("fig10_gpu_perf", _DR_MEAN,
          "data.dr_mean_speedup", "sign", op="<", bound=1.55),
    Claim("fig10_gpu_perf", "DR +14.2% over RP on average",
          "data.dr_over_rp", "sign", bound=1.05),
    Claim("fig10_gpu_perf", "DR gains up to +65.9%",
          "max(*.dr_speedup)", "sign", op=">=", bound=1.4),
    Claim("fig10_gpu_perf", "HS gains most (+65.9%)",
          "rank(HS.dr_speedup)", "sign", op="<=", bound=2),
    *(Claim("fig10_gpu_perf", "SC, LUD and BP gain least", f"{b}.dr_speedup",
            "ordering", op="<", other="HS.dr_speedup")
      for b in ("SC", "LUD", "BP")),
    Claim("fig10_gpu_perf", "DR improves every benchmark",
          "*.dr_speedup", "sign", bound=0.97),
    Claim("fig11_data_rate", "DR +26.5% data rate per GPU core on average",
          "data.dr_mean_gain", "sign", bound=1.10),
    Claim("fig11_data_rate", "DR +26.5% vs RP +11.9% data rate on average",
          "data.dr_mean_gain", "ordering", other="data.rp_mean_gain"),
    Claim("fig11_data_rate", "HS gains most (+70.9%)",
          "rank(HS.dr_gain)", "sign", op="<=", bound=3),
    Claim("fig12_cpu_latency", "CPU packet latency -44.2% on average",
          "data.mean_ratio", "sign", op="<", bound=0.95),
    Claim("fig12_cpu_latency", "CPU packet latency down by up to 59.7%",
          "min(*.min)", "sign", op="<", bound=0.75),
    Claim("fig12_cpu_latency", "no CPU benchmark's latency grows",
          "*.dr_latency_ratio", "sign", op="<", bound=1.15),
    Claim("fig13_cpu_perf", "CPU performance +3.8% on average",
          "data.mean_speedup", "sign"),
    Claim("fig13_cpu_perf", "+8.8% (up to +19.8%) on the clogged workloads",
          "data.clogged_mean_speedup", "ordering", other="data.mean_speedup"),
    Claim("fig13_cpu_perf", "latency-sensitive vips gains more than dedup",
          "vips.max", "ordering", op=">=", other="dedup.max", tol=0.1),
    Claim("fig14_miss_breakdown", "54.8% of L1 misses are delegated",
          "data.mean_delegated", "sign", bound=0.15),
    Claim("fig14_miss_breakdown", "74.4% of delegated requests remote-hit",
          "data.mean_remote_hit_rate", "sign", bound=0.6),
    Claim("fig14_miss_breakdown", "a miss goes to the LLC or is delegated",
          "*.llc + *.remote_hit + *.remote_miss", "band", op="<", tol=1e-6),
    Claim("fig14_miss_breakdown", "3DCON, BT and LPS show remote misses",
          "3DCON.remote_miss + BT.remote_miss + LPS.remote_miss", "ordering",
          other="HS.remote_miss + SC.remote_miss + NN.remote_miss"),
    *(Claim("fig14_miss_breakdown", "HS and 2DCON lead the remote hits (>60%)",
            f"rank({b}.remote_hit)", "sign", op="<=", bound=4)
      for b in ("HS", "2DCON")),
    Claim("fig15_shared_l1", _DR_ON_DYNEB,
          "data.dr_on_dyneb_rr", "sign", bound=1.08),
    Claim("fig15_shared_l1", _DR_ON_DYNEB,
          "mean(*.dyneb+dr-rr)", "ordering", other="mean(*.dyneb-rr)"),
    Claim("fig15_shared_l1", "DynEB helps consistently; DC-L1 can hurt",
          "*.dyneb-rr", "ordering", other="*.dc_l1-rr", tol=0.25),
    Claim("fig16_topology_dr", "DR helps every topology, +21.9% to +28.3%",
          "*.dr_speedup", "sign", bound=1.08),
    Claim("fig16_topology_dr", "DR helps every topology, +21.9% to +28.3%",
          "max(*.dr_speedup)", "ratio", op="<", other="min(*.dr_speedup)",
          bound=1.5),
    Claim("fig17_layout_dr", "DR's GPU gain is uniform: +25.3% to +29.0%",
          "*.gpu_dr_speedup", "sign", bound=1.08),
    Claim("fig17_layout_dr", "DR's CPU gain tracks interference: B +13.4%, "
          "D +20.9% against Baseline +3.8%, C +2.2%",
          "edge.cpu_dr_speedup + distributed.cpu_dr_speedup", "ordering",
          other="baseline.cpu_dr_speedup + clustered.cpu_dr_speedup",
          tol=0.05),
    Claim("fig19_sensitivity", "DR helps across the whole design space",
          "*.dr_speedup", "sign"),
    Claim("fig19_sensitivity", "a solid gain at every channel width "
          "(+13.9% at 24 B)", "channel_width:*.dr_speedup", "sign",
          bound=1.03),
    Claim("fig19_sensitivity", "the gain grows with L1 size (22.9->30.2%)",
          "l1_size:64KB.dr_speedup", "ordering", op=">=",
          other="l1_size:16KB.dr_speedup", tol=0.02),
    Claim("fig19_sensitivity", "the gain is insensitive to injection buffers",
          "max(injection_buffer:*.dr_speedup)", "ratio", op="<",
          other="min(injection_buffer:*.dr_speedup)", bound=1.4),
    Claim("node_mix", "fewer memory nodes, more gain: 4 mem +38.2% > "
          "8 mem +30.5% > 16 mem +10.7%", "8cpu/52gpu/4mem.dr_speedup",
          "ordering", other="8cpu/40gpu/16mem.dr_speedup"),
    Claim("node_mix", "DR helps at every node mix", "*.dr_speedup", "sign"),
    Claim("area_energy", "the baseline NoC is 2.27 mm2",
          "baseline_noc_mm2.value", "band", op="<=", bound=2.27, tol=0.05),
    Claim("area_energy", "the 2x-bandwidth NoC is 5.76 mm2",
          "double_bw_noc_mm2.value", "band", op="<=", bound=5.76, tol=0.1),
    Claim("area_energy", "doubling bandwidth costs 2.5x the NoC area",
          "double_bw_ratio.value", "band", op="<=", bound=2.5, tol=0.1),
    Claim("area_energy", "DR adds 0.08 + 0.092 = 0.172 mm2",
          "dr_total_mm2.value", "band", op="<=", bound=0.172, tol=0.01),
    Claim("area_energy", _EXTRA_AREA,
          "dr_vs_double_bw_extra.value", "sign", bound=0.03),
    Claim("area_energy", _EXTRA_AREA,
          "dr_vs_double_bw_extra.value", "sign", op="<", bound=0.07),
    Claim("area_energy", "RP inflates requests 5.9x",
          "rp_request_count.ratio", "sign", bound=2.0),
    Claim("area_energy", "NoC dynamic energy: RP +9.4%, DR -1.1%",
          "rp_noc_dynamic_energy.ratio", "ordering",
          other="dr_noc_dynamic_energy.ratio"),
    Claim("area_energy", "DR cuts system energy by 13.6%",
          "dr_system_energy.ratio", "sign", op="<"),
    Claim("area_energy", "system energy: DR -13.6% beats RP -7.4%",
          "dr_system_energy.ratio", "ordering", op="<",
          other="rp_system_energy.ratio"),
    Claim("ablations", "delegate only when the reply path is blocked",
          "delegate_on_block.dr_speedup", "sign", bound=1.05),
    Claim("ablations", "delegating always still helps",
          "delegate_always.dr_speedup", "sign"),
    Claim("ablations", _FRQ_8, "frq_8_entries.dr_speedup", "ordering",
          other="frq_2_entries.dr_speedup", tol=0.05),
    Claim("ablations", _FRQ_8, "frq_16_entries.dr_speedup", "ordering",
          op="<", other="frq_8_entries.dr_speedup", tol=0.10),
    Claim("ablations", "imprecise pointer tracking is safe",
          "no_pointer_invalidation.dr_speedup", "sign", bound=0.9),
    Claim("ablations", "74.5% core-pointer hit rate",
          "data.pointer_accuracy", "sign", bound=0.5),
)

Value = Union[float, Dict[str, float]]


class _Missing(LookupError):
    """A path names something the result does not have."""


class _Unmeasured(ArithmeticError):
    """A claim reads a number nothing was measured for (NaN)."""


def _measured(term: str, values) -> None:
    if any(isinstance(v, float) and math.isnan(v) for v in values):
        raise _Unmeasured(term)


@dataclasses.dataclass(frozen=True)
class Verdict:
    """What :func:`check` found: ✓, ✗, ``✗|n/a (missing X)`` or ``✗
    (unmeasured)``, the judged number and what it was held against (for a
    per-row path, those of the row nearest to failing, named by ``row``)."""

    claim: Claim
    verdict: str
    value: Optional[float] = None
    against: Optional[float] = None
    row: Optional[str] = None

    def measured(self) -> str:
        if self.value is None:
            return "—"
        text = f"{self.value:.4g}"
        if self.claim.kind == "ordering":
            text += f" vs {self.against:.4g}"
        return text + (f" ({self.row})" if self.row else "")

    def __str__(self) -> str:
        return (f"{self.verdict} {rule(self.claim)}: {self.measured()}"
                f"  (paper: {self.claim.paper})")

    def to_dict(self) -> dict:
        return {"check": rule(self.claim), "paper": self.claim.paper,
                "value": self.value, "measured": self.measured(),
                "verdict": self.verdict}


def _slack(claim: Claim) -> float:
    return 1 - claim.tol if claim.op[0] == ">" else 1 + claim.tol


def rule(claim: Claim) -> str:
    """The check a claim states, as one line."""
    if claim.kind == "band":
        tol = f" ± {claim.tol:g}" if claim.tol else ""
        return f"{claim.path} = {claim.bound:g}{tol}"
    if claim.kind == "ordering":
        if not claim.tol:
            return f"{claim.path} {claim.op} {claim.other}"
        other = f"({claim.other})" if " + " in claim.other else claim.other
        return f"{claim.path} {claim.op} {other} × {_slack(claim):g}"
    if claim.kind == "ratio":
        return f"{claim.path} / {claim.other} {claim.op} {claim.bound:g}"
    return f"{claim.path} {claim.op} {claim.bound:g}"


def _cells(term: str, result: ExperimentResult) -> Value:
    """``data.KEY``, ``LABEL.COL`` or ``GLOB.COL`` (per row)."""
    if term.startswith("data."):
        if term[5:] not in result.data:
            raise _Missing(term)
        _measured(term, [result.data[term[5:]]])
        return result.data[term[5:]]
    pattern, col = term.rsplit(".", 1)
    rows = {label: values for label, values in result.rows
            if fnmatchcase(label, pattern)}
    if not rows:
        raise _Missing(pattern)
    for label, values in rows.items():
        if col not in values:
            raise _Missing(f"{label}.{col}")
    cells = {label: values[col] for label, values in rows.items()}
    _measured(term, cells.values())
    return cells if "*" in pattern else cells[pattern]


def _term(term: str, result: ExperimentResult) -> Value:
    call = re.fullmatch(r"(mean|max|min|rank)\((.*)\)", term)
    if not call:
        return _cells(term, result)
    fn, args = call.groups()
    if fn == "rank":
        label, col = args.rsplit(".", 1)
        _cells(args, result)
        column = _cells(f"*.{col}", result)
        return sorted(column, key=lambda b: -column[b]).index(label) + 1
    values = [_cells(arg, result) for arg in args.split(", ")]
    if fn == "mean":
        return amean(values[0].values())
    pick = max if fn == "max" else min
    if len(values) == 1:
        return pick(values[0].values())
    if isinstance(values[0], dict):
        return {label: pick(v[label] for v in values) for label in values[0]}
    return pick(values)


def _add(a: Value, b: Value) -> Value:
    if isinstance(a, dict):
        return {label: a[label] + b[label] for label in a}
    return a + b


def _resolve(path: str, result: ExperimentResult) -> Value:
    return reduce(_add, (_term(t, result) for t in path.split(" + ")))


def check(claim: Claim, result: ExperimentResult) -> Verdict:
    """Judge one claim on its figure's result: ✓, ✗ or ``n/a``."""
    try:
        value = _resolve(claim.path, result)
        other = _resolve(claim.other, result) if claim.other else None
    except _Missing as missing:
        mark = "n/a" if str(missing) in BENCHMARKS else "✗"
        return Verdict(claim, f"{mark} (missing {missing})")
    except _Unmeasured:
        return Verdict(claim, "✗ (unmeasured)")
    per_row = next((x for x in (value, other) if isinstance(x, dict)), None)
    judged = []
    for label in per_row or [None]:
        v = value[label] if isinstance(value, dict) else value
        o = other[label] if isinstance(other, dict) else other
        if claim.kind == "ratio":
            if not o:
                return Verdict(claim, "✗ (unmeasured)")
            v = v / o
        lhs, rhs = v, claim.bound
        if claim.kind == "ordering":
            rhs = o * _slack(claim)
        elif claim.kind == "band":
            lhs, rhs = abs(v - claim.bound), claim.tol
        margin = lhs - rhs if claim.op[0] == ">" else rhs - lhs
        against = claim.bound if claim.kind == "band" else rhs
        judged.append((OPS[claim.op](lhs, rhs), margin, v, against, label))
    # report the row nearest to failing (a failing one first)
    _, _, v, against, label = min(judged, key=lambda j: j[:2])
    verdict = "✓" if all(j[0] for j in judged) else "✗"
    return Verdict(claim, verdict, v, against, label)


def judge(result: ExperimentResult) -> List[Verdict]:
    """Every claim on ``result``'s figure, judged in table order."""
    return [check(c, result) for c in CLAIMS if c.figure == result.name]


def render_markdown(claims_json: dict) -> str:
    """EXPERIMENTS.md's ledger table, from the loop's ``claims.json``."""
    settings = " ".join(f"`{k}={v}`" for k, v in
                        sorted(claims_json["settings"].items()))
    figures = claims_json["figures"]
    rows = [row for fig in figures.values() for row in fig["rows"]]
    tally = ", ".join(f"{sum(r['verdict'].startswith(m) for r in rows)} {m}"
                      for m in ("✓", "✗", "n/a"))
    lines = [
        f"Judged by `benchmarks/test_claims.py` under "
        f"{settings or 'no `REPRO_*` setting'} (code version "
        f"`{claims_json['code_version']}`; the last loop's one sweep took "
        f"{claims_json['wall_s']:.0f} s at "
        f"`REPRO_SWEEP_JOBS={claims_json['workers']}`"
        f"{' with a cache' * claims_json['sweep_cache']}, "
        # five runs of one commit read 108-242 s: a run says no speed
        "one unpaired run, which cannot compare two commits): "
        f"{len(rows)} claims, {tally}.",
        "",
        "| Figure | Paper | Check | Measured | Verdict |",
        "|--------|-------|-------|----------|---------|",
    ]
    lines += [f"| {name} | {r['paper']} | `{r['check']}` | {r['measured']} "
              f"| {r['verdict']} |"
              for name, fig in figures.items() for r in fig["rows"]]
    return "\n".join(lines) + "\n"
