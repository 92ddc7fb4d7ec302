"""Delegated Replies — the paper's mechanism (Sections II and IV).

The memory node speculatively delegates the responsibility of replying to
an LLC *hit* to the GPU core that last accessed the block (the LLC's core
pointer).  Delegation is decided entirely at the end points:

* the LLC marks a reply *delegatable* when the request was a GPU read that
  hit in the LLC, the block's core pointer is valid, points to a different
  GPU core than the requester, and the request did not carry the
  Do-Not-Forward bit;
* the memory-node NIC converts the oldest delegatable reply into a 1-flit
  delegated request *only when the reply network cannot accept traffic
  that cycle* (Figure 4) — turning a 9-flit reply on the clogged reply
  link into a 1-flit request on the under-utilised request link.

Routers treat delegated replies as ordinary requests; no NoC changes are
needed beyond the DNF bit, which fits in existing spare request-header
space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.config.system import DelegationConfig
from repro.noc.nic import MemoryNodeNic, is_delegatable
from repro.noc.packet import MessageType, Packet, TrafficClass


@dataclass
class ReplyMeta:
    """Metadata the memory node attaches to a reply packet (``pkt.txn``)."""

    #: LLC hit (only hits are delegatable)
    llc_hit: bool = False
    #: core to delegate to, when the reply is delegatable
    delegate_to: Optional[int] = None


@dataclass
class DelegationStats:
    delegations: int = 0
    delegatable_seen: int = 0


class DelegatedRepliesMechanism:
    """Installs the delegation policy on a memory node's NIC."""

    def __init__(self, cfg: DelegationConfig) -> None:
        self.cfg = cfg
        self.stats = DelegationStats()

    def attach(self, nic: MemoryNodeNic) -> None:
        nic.delegation_policy = self._delegate
        nic.delegate_only_when_blocked = self.cfg.only_when_blocked
        nic.max_delegations_per_cycle = self.cfg.max_delegations_per_cycle

    def _delegate(self, reply: Packet, cycle: int) -> Optional[Packet]:
        """Convert a delegatable reply into its 1-flit delegated request."""
        meta = reply.txn
        if not is_delegatable(meta):
            return None
        if reply.mtype is not MessageType.READ_REPLY:
            return None
        if reply.cls is not TrafficClass.GPU:
            return None
        self.stats.delegatable_seen += 1
        delegated = Packet(
            src=reply.src,              # injected at the memory node ...
            dst=meta.delegate_to,       # ... towards the likely sharer
            mtype=MessageType.DELEGATED_REQ,
            cls=TrafficClass.GPU,
            size_flits=1,
            block=reply.block,
            requester=reply.dst,        # the paper encodes the requesting
                                        # core as the sender ID
            created=cycle,
        )
        self.stats.delegations += 1
        return delegated
