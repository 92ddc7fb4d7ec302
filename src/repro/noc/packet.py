"""Packets and message types carried by the NoC.

A *packet* is the unit of routing: it carries a message between two nodes
and occupies ``size_flits`` flow-control units.  Following the paper's
setup, a metadata-only message (a read request, a delegated reply, a
write acknowledgment) is a single flit, while a data-carrying message adds
one data flit per 16 bytes of payload — 9 flits for a 128 B GPU cache line
and 5 flits for a 64 B CPU cache line.

Wormhole flow control is simulated with *counter-based worms*: a packet
object is shared by every buffer currently holding some of its flits, and
each buffer entry records how many of the packet's flits it holds.  This
preserves flit-level backpressure and head-of-line blocking without
allocating per-flit objects.
"""

from __future__ import annotations

import enum
import itertools
from typing import Optional


class MessageType(enum.IntEnum):
    """Protocol-level message kinds (Sections II and IV)."""

    READ_REQ = 0          # core -> LLC read request (1 flit)
    WRITE_REQ = 1         # core -> LLC write-through (header + data flits)
    READ_REPLY = 2        # LLC/MC -> core data reply (header + data flits)
    WRITE_ACK = 3         # LLC -> core write acknowledgment (1 flit)
    DELEGATED_REQ = 4     # memory node -> GPU core delegation (1 flit)
    C2C_REPLY = 5         # GPU core -> GPU core delegated data reply
    DNF_REQ = 6           # GPU core -> LLC re-sent request, Do-Not-Forward
    PROBE_REQ = 7         # RP: core -> remote L1 probe (1 flit)
    PROBE_NACK = 8        # RP: remote L1 -> core probe miss (1 flit)


#: message types that travel on the (virtual or physical) request network.
REQUEST_NET_TYPES = frozenset(
    {
        MessageType.READ_REQ,
        MessageType.WRITE_REQ,
        MessageType.DELEGATED_REQ,
        MessageType.DNF_REQ,
        MessageType.PROBE_REQ,
    }
)


class TrafficClass(enum.IntEnum):
    """Scheduling class; CPU traffic is prioritised over GPU traffic."""

    CPU = 0
    GPU = 1


class NetKind(enum.IntEnum):
    """Which (physical or virtual) network a packet travels on."""

    REQUEST = 0
    REPLY = 1


# The members per-cycle and per-packet code reads, bound once as module
# globals: on CPython 3.9-3.11 every ``NetKind.REPLY``-style lookup runs
# through the ``__getattr__`` hook ``EnumType`` defines (~100 ns on 3.11.7,
# against ~7 ns for a global), millions of times in a full-system run.
(READ_REQ, WRITE_REQ, READ_REPLY, WRITE_ACK, DELEGATED_REQ, C2C_REPLY,
 DNF_REQ, PROBE_REQ, PROBE_NACK) = MessageType
CPU_CLS, GPU_CLS = TrafficClass
REQUEST_NET, REPLY_NET = NetKind

_packet_ids = itertools.count()


class Packet:
    """One NoC packet.

    Attributes:
        src: injecting node id.
        dst: destination node id.
        mtype: protocol message type.
        cls: traffic class (CPU or GPU) used for priority arbitration.
        net: request or reply network.
        size_flits: total flits including the header flit.
        block: cache-block address the transaction concerns.
        requester: node id of the core that originally issued the
            transaction.  For delegated requests this differs from ``src``:
            the paper encodes the *requesting* core as the sender ID so the
            remote L1 knows whom to supply data to.
        delegate_to: on a read reply the memory node may delegate, the GPU
            core its LLC core pointer names (Section IV); None on every
            other packet.
        dnf: the Do-Not-Forward bit (Section IV).
        created / injected / delivered: cycle timestamps for latency stats;
            -1 means "not yet set" (the NIC stamps ``created`` on the first
            successful ``try_send`` when the creator did not).
        hops: routers traversed, used by the energy model.
    """

    __slots__ = (
        "pid",
        "src",
        "dst",
        "mtype",
        "cls",
        "net",
        "size_flits",
        "block",
        "requester",
        "delegate_to",
        "dnf",
        "created",
        "injected",
        "delivered",
        "hops",
    )

    def __init__(
        self,
        src: int,
        dst: int,
        mtype: MessageType,
        cls: TrafficClass,
        size_flits: int,
        block: int = 0,
        requester: Optional[int] = None,
        delegate_to: Optional[int] = None,
        dnf: bool = False,
        created: int = -1,
    ) -> None:
        if size_flits < 1:
            raise ValueError("a packet is at least one (header) flit")
        if src == dst:
            raise ValueError("packet source and destination must differ")
        self.pid = next(_packet_ids)
        self.src = src
        self.dst = dst
        self.mtype = mtype
        self.cls = cls
        self.net = REQUEST_NET if mtype in REQUEST_NET_TYPES else REPLY_NET
        self.size_flits = size_flits
        self.block = block
        self.requester = src if requester is None else requester
        self.delegate_to = delegate_to
        self.dnf = dnf
        self.created = created
        self.injected = -1
        self.delivered = -1
        self.hops = 0

    @property
    def latency(self) -> int:
        """Network latency from injection-queue entry to delivery."""
        if self.delivered < 0:
            raise ValueError("packet not delivered yet")
        return self.delivered - self.created

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Packet(#{self.pid} {self.mtype.name} {self.src}->{self.dst} "
            f"{self.size_flits}f {self.cls.name} blk={self.block:#x})"
        )
