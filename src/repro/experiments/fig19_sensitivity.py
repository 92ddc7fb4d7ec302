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

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.config import baseline_config, delegated_replies_config, table1_mix
from repro.experiments.common import (
    ExperimentResult, Results, Specs, dr_over_baseline, dr_speedup_rows,
    pair_specs, table,
)
from repro.sweep.jobs import figure_benchmarks

#: panel name -> list of (point label, the ``SystemConfig.update`` edit
#: applied to both the baseline and the DR config)
PANELS: Dict[str, List[Tuple[str, Dict[str, Any]]]] = {
    "l1_size": [(f"{kb}KB", {"gpu_l1": {"size_bytes": kb * 1024}})
                for kb in (16, 48, 64)],
    "llc_size": [(f"{mb:g}MB", {"llc": {"slice_size_bytes": int(mb * 2**20)}})
                 for mb in (0.5, 1.0, 2.0)],
    "channel_width": [(f"{n}B", {"noc": {"channel_width_bytes": n}})
                      for n in (8, 16, 24)],
    # two virtual networks on one physical network with the baseline link
    # width; both the base and the DR run use the same fabric, so the
    # reported quantity is DR's gain on a virtual-network system
    "virtual_networks": [
        (f"{vcs}vc", {"noc": {"separate_physical_networks": False,
                              "request_vcs": vcs, "reply_vcs": vcs}})
        for vcs in (1, 2)
    ],
    "mesh_size": [(f"{n}x{n}", table1_mix(n, n)) for n in (8, 10, 12)],
    "injection_buffer": [(f"{n}f", {"noc": {"mem_injection_buffer_flits": n}})
                         for n in (18, 36, 72)],
}


def specs(
    benchmarks: Optional[Sequence[str]] = None,
    panels: Optional[Sequence[str]] = None,
    cycles: Optional[int] = None,
    warmup: Optional[int] = None,
) -> Specs:
    """Every panel's points (all panels unless a subset is requested),
    labelled ``"panel:point"``, baseline and DR on every benchmark."""
    pairs = {}
    for panel in panels or PANELS:
        for label, edit in PANELS[panel]:
            pairs[f"{panel}:{label}"] = (
                baseline_config().update(edit),
                delegated_replies_config().update(edit),
            )
    return pair_specs(pairs, benchmarks or figure_benchmarks(3),
                      cycles, warmup)


def tabulate(results: Results) -> ExperimentResult:
    """Fig. 19: DR speedup per design point."""
    return table(
        "fig19_sensitivity",
        "Fig. 19: sensitivity analyses — DR speedup per design point",
        dr_speedup_rows(dr_over_baseline(results)),
        label_header="design point",
    )
