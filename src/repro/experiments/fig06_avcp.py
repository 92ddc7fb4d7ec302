"""Figure 6: Asymmetric VC Partitioning (AVCP) [33] — Section III-B.

AVCP shares one physical network between requests and replies and gives
reply traffic more VCs.  The paper finds it ineffective, and harmful to
write-heavy benchmarks that stress the virtual request network: flits
still serialise on the same physical links, so VC allocation cannot raise
the clogged links' bandwidth.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.config import baseline_config
from repro.experiments.common import (
    ExperimentResult, Results, Specs, config_specs, over_reference, ratio,
    table,
)
from repro.sweep.jobs import figure_benchmarks

#: (request VCs, reply VCs) splits over one shared physical network with
#: the baseline's aggregate 4 VCs.  "2+2" is the symmetric reference;
#: AVCP is the reply-heavy split.
VC_SPLITS = ((2, 2), (1, 3), (3, 1))


def specs(
    benchmarks: Optional[Sequence[str]] = None,
    cycles: Optional[int] = None,
    warmup: Optional[int] = None,
) -> Specs:
    """The baseline and every VC split on every benchmark."""
    configs = {"base": baseline_config()}
    for req_vcs, rep_vcs in VC_SPLITS:
        # one physical network, same link width: the clogged links keep
        # exactly their baseline bandwidth, which is the paper's point —
        # VC allocation cannot raise link bandwidth
        configs[(req_vcs, rep_vcs)] = baseline_config().update({"noc": {
            "separate_physical_networks": False,
            "request_vcs": req_vcs, "reply_vcs": rep_vcs,
        }})
    return config_specs(configs, benchmarks or figure_benchmarks(6),
                        cycles, warmup)


def tabulate(results: Results) -> ExperimentResult:
    """Fig. 6: AVCP GPU performance vs the baseline."""
    rows = over_reference(
        results, "base", {f"{q}req+{p}rep": (q, p) for q, p in VC_SPLITS}
    )
    for _, cells in rows:
        # partitioning effect in isolation: AVCP vs the symmetric shared net
        cells["avcp_vs_symmetric"] = ratio(
            cells["1req+3rep"], cells["2req+2rep"]
        )
    return table(
        "fig06_avcp",
        "Fig. 6: AVCP (shared physical net, asymmetric VCs) vs baseline",
        rows,
        "hmean",
    )
