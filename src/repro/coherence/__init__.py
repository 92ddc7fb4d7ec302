"""Coherence: GPU software coherence (flushes and pointer invalidation)."""

from repro.coherence.software import (
    CoherenceStats,
    SoftwareCoherenceController,
)

__all__ = [
    "CoherenceStats",
    "SoftwareCoherenceController",
]
