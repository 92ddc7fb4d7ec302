"""Tests for packets and message-type/network mapping."""

import types

import pytest

from repro.cpu.core import CpuCore
from repro.gpu.core import GpuCore
from repro.noc.network import PhysicalNetwork
from repro.noc.nic import MemoryNodeNic, NodeInterface
from repro.noc.packet import (
    MessageType,
    NetKind,
    Packet,
    REQUEST_NET_TYPES,
    TrafficClass,
)
from repro.sim.memory_node import MemoryNode


def mk(mtype, flits=1, **kw):
    return Packet(0, 1, mtype, TrafficClass.GPU, flits, **kw)


class TestNetworkAssignment:
    """Requests and delegated replies ride the request network; data
    replies, write acks and probe NACKs ride the reply network."""

    @pytest.mark.parametrize(
        "mtype",
        [
            MessageType.READ_REQ,
            MessageType.WRITE_REQ,
            MessageType.DELEGATED_REQ,
            MessageType.DNF_REQ,
            MessageType.PROBE_REQ,
        ],
    )
    def test_request_network_types(self, mtype):
        assert mk(mtype).net is NetKind.REQUEST
        assert mtype in REQUEST_NET_TYPES

    @pytest.mark.parametrize(
        "mtype",
        [
            MessageType.READ_REPLY,
            MessageType.WRITE_ACK,
            MessageType.C2C_REPLY,
            MessageType.PROBE_NACK,
        ],
    )
    def test_reply_network_types(self, mtype):
        assert mk(mtype).net is NetKind.REPLY


class TestPacketInvariants:
    def test_zero_flits_rejected(self):
        with pytest.raises(ValueError):
            mk(MessageType.READ_REQ, flits=0)

    def test_self_send_rejected(self):
        with pytest.raises(ValueError):
            Packet(3, 3, MessageType.READ_REQ, TrafficClass.GPU, 1)

    def test_requester_defaults_to_src(self):
        assert mk(MessageType.READ_REQ).requester == 0

    def test_delegated_request_encodes_requester(self):
        # Section IV: delegated replies carry the requesting core as sender
        pkt = Packet(
            5, 9, MessageType.DELEGATED_REQ, TrafficClass.GPU, 1, requester=7
        )
        assert pkt.src == 5 and pkt.requester == 7

    def test_latency_requires_delivery(self):
        pkt = mk(MessageType.READ_REQ)
        with pytest.raises(ValueError):
            _ = pkt.latency
        pkt.created = 10
        pkt.delivered = 35
        assert pkt.latency == 25

    def test_ids_are_unique_and_monotonic(self):
        a, b = mk(MessageType.READ_REQ), mk(MessageType.READ_REQ)
        assert b.pid > a.pid

    def test_cpu_class_outranks_gpu_in_sort(self):
        assert TrafficClass.CPU < TrafficClass.GPU

    def test_dnf_defaults_false(self):
        assert not mk(MessageType.READ_REQ).dnf


#: the object kernel's per-cycle and per-packet functions and those of the
#: endpoints it steps
HOT_FUNCTIONS = (
    PhysicalNetwork.decide, PhysicalNetwork.commit, PhysicalNetwork.accept,
    NodeInterface._inject_net, NodeInterface.inject_step,
    MemoryNodeNic.inject_step,
    NodeInterface.try_send, MemoryNodeNic.try_send,
    NodeInterface.can_enqueue, MemoryNodeNic.can_enqueue,
    MemoryNode.step, MemoryNode._drain_results, MemoryNode.on_packet,
    GpuCore.step, GpuCore._maybe_sleep, GpuCore._issue_local,
    GpuCore._issue_warp, GpuCore._issue_read, GpuCore._issue_write,
    GpuCore.on_packet,
    CpuCore.step, CpuCore._try_send, CpuCore.on_packet,
)


def _names(code):
    """The global and attribute names ``code`` and its nested code read."""
    yield from code.co_names
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _names(const)


@pytest.mark.parametrize("fn", HOT_FUNCTIONS, ids=lambda fn: fn.__qualname__)
def test_hot_paths_read_enum_members_bound_once(fn):
    """Per-cycle code reads the members ``noc.packet`` binds as module
    globals, never ``NetKind.REPLY``-style: on CPython 3.11.7 that lookup
    runs through ``EnumType.__getattr__`` and costs ~104 ns against ~7 ns
    for a global (``timeit``, 2-core Xeon container), and these functions
    run millions of times in a full-system run."""
    assert not {"NetKind", "MessageType", "TrafficClass"} & set(_names(fn.__code__))
