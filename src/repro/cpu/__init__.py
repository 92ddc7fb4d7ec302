"""CPU core model: Netrace-style dependency-driven traffic."""

from repro.cpu.core import CpuCore, CpuCoreStats

__all__ = [
    "CpuCore",
    "CpuCoreStats",
]
