"""DSENT/CACTI-style analytic area models (Sections III-B and IV).

The paper uses DSENT v0.91 [54] for NoC area/power and CACTI 6.5 [47] for
the core-pointer storage, both at a 22 nm node.  Neither tool is
redistributable, so this module implements the scaling laws those tools
embody, calibrated to the paper's published absolute numbers:

* baseline mesh NoC area           2.27 mm²
* double-bandwidth mesh NoC area   5.76 mm²  (2.5x — crossbar area grows
  quadratically with channel width, buffers linearly)
* Delegated Replies NoC additions  0.092 mm² (the 40 FRQs)
* core-pointer storage             0.08 mm²  (6-bit pointers, 8 MB LLC)
* total Delegated Replies overhead 0.172 mm² (≈5% of the 2x-NoC's extra
  3.49 mm²)

The router model follows DSENT's decomposition: input buffers scale with
``vcs x depth x width``, the crossbar with ``ports² x width²``, the
allocator with ``ports x vcs``; link (wire) area scales with width and
length (4.3 mm links, per Section VI).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.config.system import SystemConfig
from repro.noc.topology import build_topology

#: technology-dependent coefficients (mm² units), calibrated so the
#: baseline 8x8 mesh (two physical networks, 2 VCs x 4 flits x 16 B)
#: lands on the paper's 2.27 mm² and the double-width mesh on 5.76 mm².
BUFFER_MM2_PER_BYTE = 1.2207e-5
CROSSBAR_MM2_PER_PORT2_BYTE2 = 1.0135e-6
ALLOCATOR_MM2_PER_PORT_VC = 1.302e-4
LINK_MM2_PER_BYTE_MM = 1.7358e-5
LINK_LENGTH_MM = 4.3

#: CACTI-style SRAM density for the (large, regular) pointer array and the
#: (tiny, peripheral-dominated) FRQ queues at 22 nm
POINTER_SRAM_MM2_PER_BIT = 2.0345e-7
FRQ_MM2_PER_BIT = 4.5e-6


@dataclass
class AreaReport:
    """NoC area decomposition in mm²."""

    buffers: float
    crossbars: float
    allocators: float
    links: float

    @property
    def total(self) -> float:
        return self.buffers + self.crossbars + self.allocators + self.links

    def as_dict(self) -> Dict[str, float]:
        return {
            "buffers": self.buffers,
            "crossbars": self.crossbars,
            "allocators": self.allocators,
            "links": self.links,
            "total": self.total,
        }


def noc_area(cfg: SystemConfig) -> AreaReport:
    """Total NoC area for the configured topology and channel width.

    Covers both physical networks (or the one shared network with the
    combined VC count).  ``bandwidth_factor`` scales the effective channel
    width, reproducing the paper's 2x-bandwidth experiments.
    """
    noc = cfg.noc
    width = noc.channel_width_bytes * noc.bandwidth_factor
    topo = build_topology(noc.topology, cfg.mesh_width, cfg.mesh_height)
    networks, vcs = noc.physical_networks, noc.network_vcs
    buffers = crossbars = allocators = 0.0
    for rid in range(topo.n):
        ports = 1 + len(topo.neighbors(rid))
        buffers += BUFFER_MM2_PER_BYTE * ports * vcs * noc.vc_depth_flits * width
        crossbars += CROSSBAR_MM2_PER_PORT2_BYTE2 * (ports ** 2) * (width ** 2)
        allocators += ALLOCATOR_MM2_PER_PORT_VC * ports * vcs
    n_links = len(topo.links())
    links = LINK_MM2_PER_BYTE_MM * width * LINK_LENGTH_MM * n_links * 2  # both directions
    return AreaReport(
        buffers=buffers * networks,
        crossbars=crossbars * networks,
        allocators=allocators * networks,
        links=links * networks,
    )


def core_pointer_area(cfg: SystemConfig) -> float:
    """CACTI-style area of the LLC core-pointer storage (mm²).

    One 6-bit pointer per LLC line for 40 GPU cores; with an 8 MB LLC of
    128 B lines the paper reports 0.08 mm².
    """
    bits_per_pointer = max(1, (cfg.n_gpu - 1).bit_length())
    total_lines = (
        cfg.llc.slice_size_bytes // cfg.llc.line_bytes
    ) * cfg.n_mem
    return total_lines * bits_per_pointer * POINTER_SRAM_MM2_PER_BIT


def frq_area(cfg: SystemConfig) -> float:
    """DSENT-style area of the FRQs across all GPU cores (mm²).

    Each FRQ entry stores a requester id, a 48-bit block address and
    bookkeeping (~64 bits); the paper reports 0.092 mm² for 40 cores x 8
    entries.
    """
    bits_per_entry = 64
    return cfg.n_gpu * cfg.gpu_l1.frq_entries * bits_per_entry * FRQ_MM2_PER_BIT


def delegated_replies_overhead(cfg: SystemConfig) -> Dict[str, float]:
    """Total hardware overhead of Delegated Replies (Section IV)."""
    pointers = core_pointer_area(cfg)
    frqs = frq_area(cfg)
    return {
        "core_pointers": pointers,
        "frqs": frqs,
        "total": pointers + frqs,
    }
