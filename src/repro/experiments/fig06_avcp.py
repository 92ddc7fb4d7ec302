"""Figure 6: Asymmetric VC Partitioning (AVCP) [33] — Section III-B.

AVCP shares one physical network between requests and replies and gives
reply traffic more VCs.  The paper finds it ineffective, and harmful to
write-heavy benchmarks that stress the virtual request network: flits
still serialise on the same physical links, so VC allocation cannot raise
the clogged links' bandwidth.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.analysis.report import format_table
from repro.config import baseline_config
from repro.experiments.common import ExperimentResult, simulate_configs
from repro.sweep.jobs import figure_benchmarks

#: (request VCs, reply VCs) splits over one shared physical network with
#: the baseline's aggregate 4 VCs.  "2+2" is the symmetric reference;
#: AVCP is the reply-heavy split.
VC_SPLITS = ((2, 2), (1, 3), (3, 1))


def run(
    benchmarks: Optional[Sequence[str]] = None,
    cycles: Optional[int] = None,
    warmup: Optional[int] = None,
) -> ExperimentResult:
    """Regenerate Fig. 6: AVCP GPU performance vs the baseline."""
    benchmarks = list(benchmarks or figure_benchmarks(6))
    configs = {"base": baseline_config()}
    for req_vcs, rep_vcs in VC_SPLITS:
        cfg = configs[(req_vcs, rep_vcs)] = baseline_config()
        # one physical network, same link width: the clogged links keep
        # exactly their baseline bandwidth, which is the paper's point —
        # VC allocation cannot raise link bandwidth
        cfg.noc.separate_physical_networks = False
        cfg.noc.request_vcs = req_vcs
        cfg.noc.reply_vcs = rep_vcs
    raw = simulate_configs(configs, benchmarks, cycles, warmup)
    rows: List[Tuple[str, dict]] = []
    for gpu in benchmarks:
        values = {}
        shared_sym = None
        for req_vcs, rep_vcs in VC_SPLITS:
            res = raw[((req_vcs, rep_vcs), gpu)]
            speedup = res.gpu_ipc / raw[("base", gpu)].gpu_ipc
            values[f"{req_vcs}req+{rep_vcs}rep"] = speedup
            if (req_vcs, rep_vcs) == VC_SPLITS[0]:
                shared_sym = speedup
        # partitioning effect in isolation: AVCP vs the symmetric shared net
        if shared_sym:
            values["avcp_vs_symmetric"] = values["1req+3rep"] / shared_sym
        rows.append((gpu, values))
    text = format_table(
        "Fig. 6: AVCP (shared physical net, asymmetric VCs) vs baseline",
        rows,
        mean="hmean",
        label_header="benchmark",
    )
    return ExperimentResult(
        name="fig06_avcp",
        rows=rows,
        text=text,
    )
