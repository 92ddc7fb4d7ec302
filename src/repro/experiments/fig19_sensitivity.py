"""Figure 19: sensitivity analyses (Section VII).

Six panels, each reporting Delegated Replies' average GPU speedup under a
swept parameter:

* L1 size (16/48/64 KB): bigger L1s mean fewer misses but better remote
  hit odds.
* LLC size (0.5/1/2 MB per slice).
* NoC channel width 8/16/24 B: DR matters most when bandwidth is scarce.
* Virtual networks (shared physical net, 1 or 2 VCs per class).
* Mesh size 8x8 / 10x10 / 12x12 at constant node proportions.
* Memory-node injection buffer size: bigger buffers do not fix clogging.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.report import amean, format_table
from repro.config import (
    SystemConfig,
    baseline_config,
    delegated_replies_config,
    table1_mix,
)
from repro.experiments.common import ExperimentResult, dr_over_baseline
from repro.sweep.jobs import figure_benchmarks

Mutator = Callable[[SystemConfig], None]


def _l1(kb: int) -> Mutator:
    def mut(cfg: SystemConfig) -> None:
        cfg.gpu_l1.size_bytes = kb * 1024
    return mut


def _llc(mb_per_slice: float) -> Mutator:
    def mut(cfg: SystemConfig) -> None:
        cfg.llc.slice_size_bytes = int(mb_per_slice * 1024 * 1024)
    return mut


def _width(nbytes: int) -> Mutator:
    def mut(cfg: SystemConfig) -> None:
        cfg.noc.channel_width_bytes = nbytes
    return mut


def _virtual(vcs: int) -> Mutator:
    def mut(cfg: SystemConfig) -> None:
        # two virtual networks on one physical network with the baseline
        # link width; both the base and the DR run use the same fabric, so
        # the reported quantity is DR's gain on a virtual-network system
        cfg.noc.separate_physical_networks = False
        cfg.noc.request_vcs = vcs
        cfg.noc.reply_vcs = vcs
    return mut


def _mesh(side: int) -> Mutator:
    def mut(cfg: SystemConfig) -> None:
        cfg.update(table1_mix(side, side))
    return mut


def _injbuf(flits: int) -> Mutator:
    def mut(cfg: SystemConfig) -> None:
        cfg.noc.mem_injection_buffer_flits = flits
    return mut


#: panel name -> list of (point label, mutator)
PANELS: Dict[str, List[Tuple[str, Mutator]]] = {
    "l1_size": [("16KB", _l1(16)), ("48KB", _l1(48)), ("64KB", _l1(64))],
    "llc_size": [("0.5MB", _llc(0.5)), ("1MB", _llc(1.0)), ("2MB", _llc(2.0))],
    "channel_width": [("8B", _width(8)), ("16B", _width(16)), ("24B", _width(24))],
    "virtual_networks": [("1vc", _virtual(1)), ("2vc", _virtual(2))],
    "mesh_size": [("8x8", _mesh(8)), ("10x10", _mesh(10)), ("12x12", _mesh(12))],
    "injection_buffer": [
        ("18f", _injbuf(18)), ("36f", _injbuf(36)), ("72f", _injbuf(72))
    ],
}


def run(
    benchmarks: Optional[Sequence[str]] = None,
    panels: Optional[Sequence[str]] = None,
    cycles: Optional[int] = None,
    warmup: Optional[int] = None,
) -> ExperimentResult:
    """Regenerate Fig. 19 (all panels unless a subset is requested)."""
    benchmarks = list(benchmarks or figure_benchmarks(3))
    pairs = {}
    for panel in panels or PANELS:
        for label, mutate in PANELS[panel]:
            base_cfg, dr_cfg = baseline_config(), delegated_replies_config()
            mutate(base_cfg)
            mutate(dr_cfg)
            pairs[f"{panel}:{label}"] = (base_cfg, dr_cfg)
    runs = dr_over_baseline(pairs, benchmarks, cycles, warmup)
    rows: List[Tuple[str, dict]] = [
        (point, {"dr_speedup": amean(dr.gpu_ipc / base.gpu_ipc
                                     for base, dr in runs[point])})
        for point in pairs
    ]
    text = format_table(
        "Fig. 19: sensitivity analyses — DR speedup per design point",
        rows,
        mean=None,
        label_header="design point",
    )
    return ExperimentResult(
        name="fig19_sensitivity",
        rows=rows,
        text=text,
    )
