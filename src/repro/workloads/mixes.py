"""The 33 heterogeneous CPU-GPU workload mixes of Table II.

Each of the 11 GPU benchmarks co-runs with each of its three randomly
selected CPU benchmarks; a *workload* allocates all 40 GPU cores to the
GPU benchmark and all 16 CPU cores to the CPU benchmark.
"""

from __future__ import annotations

from typing import Dict, Tuple

#: Table II: GPU benchmark -> its three co-running CPU benchmarks.
TABLE_II: Dict[str, Tuple[str, str, str]] = {
    "2DCON": ("blackscholes", "canneal", "dedup"),
    "3DCON": ("bodytrack", "dedup", "fluidanimate"),
    "BT": ("dedup", "fluidanimate", "vips"),
    "SC": ("bodytrack", "ferret", "swaptions"),
    "HS": ("bodytrack", "ferret", "x264"),
    "LPS": ("fluidanimate", "vips", "x264"),
    "LUD": ("ferret", "blackscholes", "swaptions"),
    "MM": ("canneal", "fluidanimate", "vips"),
    "NN": ("blackscholes", "fluidanimate", "swaptions"),
    "SRAD": ("fluidanimate", "ferret", "x264"),
    "BP": ("blackscholes", "bodytrack", "ferret"),
}
