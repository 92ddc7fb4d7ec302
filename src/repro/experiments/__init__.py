"""Per-figure experiment modules regenerating the paper's evaluation.

Each module exposes ``specs(...) -> {label: JobSpec}`` and the pure
``tabulate({label: SimulationResult}) -> ExperimentResult``;
``ALL_EXPERIMENTS`` lists them in figure order.  :func:`run` runs any
number of them through one sweep (``run([fig10_gpu_perf])[0].text``),
:func:`simulate` is that sweep without the tables, and
:mod:`repro.experiments.claims` holds the paper's claims their results
are judged by.
"""

from repro.experiments.common import ExperimentResult, run, simulate
from repro.experiments import (
    ablations,
    area_energy,
    chaos_sweep,
    fig02_locality,
    fig05_topology,
    fig06_avcp,
    fig07_adaptive,
    fig09_layout,
    fig10_gpu_perf,
    fig11_data_rate,
    fig12_cpu_latency,
    fig13_cpu_perf,
    fig14_miss_breakdown,
    fig15_shared_l1,
    fig16_topology_dr,
    fig17_layout_dr,
    fig19_sensitivity,
    node_mix,
    stall_decomposition,
)

#: experiment modules in paper order
ALL_EXPERIMENTS = [
    fig02_locality,
    fig05_topology,
    fig06_avcp,
    fig07_adaptive,
    fig09_layout,
    fig10_gpu_perf,
    fig11_data_rate,
    fig12_cpu_latency,
    stall_decomposition,
    fig13_cpu_perf,
    fig14_miss_breakdown,
    fig15_shared_l1,
    fig16_topology_dr,
    fig17_layout_dr,
    fig19_sensitivity,
    node_mix,
    area_energy,
    ablations,
    chaos_sweep,
]


__all__ = ["ALL_EXPERIMENTS", "ExperimentResult", "run", "simulate"]
