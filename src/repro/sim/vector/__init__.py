"""Struct-of-arrays batch simulation backend (``backend="vector"``).

The vector backend keeps all flit, VC, credit, link and reply-buffer
state in preallocated numpy integer arrays and advances the whole NoC in
batch per-cycle array operations, replacing per-object ``step()``
dispatch on the router/NIC hot path.  It implements the same per-cycle
NoC contract as the object kernel (decide-then-commit passes, then NIC
injection; DESIGN.md §6.1) and is pinned counter-identical to it by
``tests/test_vector_kernel.py``.  See DESIGN.md §12 for the memory
layout and the batch step order.
"""

from repro.sim.vector.fabric import VectorFabric

__all__ = ["VectorFabric"]
