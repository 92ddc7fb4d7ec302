"""Area/energy models (DSENT/CACTI-style) and report formatting."""

from repro.analysis.area import (
    AreaReport,
    core_pointer_area,
    delegated_replies_overhead,
    frq_area,
    noc_area,
)
from repro.analysis.energy import EnergyReport, energy_report
from repro.analysis.report import amean, format_table, geomean, hmean

__all__ = [
    "AreaReport",
    "EnergyReport",
    "amean",
    "core_pointer_area",
    "delegated_replies_overhead",
    "energy_report",
    "format_table",
    "frq_area",
    "geomean",
    "hmean",
    "noc_area",
]
