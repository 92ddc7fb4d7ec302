"""Tests for node interfaces, the memory-node injection buffer and the
delegation trigger."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config.system import DelegationConfig, NocConfig
from repro.noc import MeshTopology, MessageType, NocFabric, Packet, TrafficClass
from repro.noc.nic import MemoryNodeNic
from repro.noc.packet import NetKind
from repro.sim.engines import build_fabric
from repro.sim.simulator import build_system

from conftest import small_dr_config


def make_fabric(mem_nodes=(5,), **noc_kw):
    cfg = NocConfig(**noc_kw)
    fab = NocFabric(MeshTopology(4, 4), cfg, mem_nodes=mem_nodes)
    for nic in fab.nics:
        nic.handler = lambda pkt, cyc: None
    return fab


def reply(src, dst, cls=TrafficClass.GPU, flits=9, delegate_to=None):
    return Packet(src, dst, MessageType.READ_REPLY, cls, flits,
                  delegate_to=delegate_to)


class TestMemoryNodeBuffer:
    def test_reply_buffer_is_flit_bounded(self):
        fab = make_fabric(mem_injection_buffer_flits=18)
        nic = fab.nic(5)
        assert isinstance(nic, MemoryNodeNic)
        assert nic.try_send(reply(5, 0), 0)   # 9 flits, headroom 9 left
        assert nic.try_send(reply(5, 1), 0)   # fills the buffer
        assert not nic.can_enqueue(NetKind.REPLY)
        assert not nic.try_send(reply(5, 2), 0)

    def test_blocking_rate_counts_full_cycles(self):
        fab = make_fabric(mem_injection_buffer_flits=9)
        nic = fab.nic(5)
        nic.try_send(reply(5, 0), 0)
        nic.blocked_cycles = 0
        assert nic.inject_step(0) is True
        # at most one flit drains per cycle: with a 9-flit buffer and an
        # 8-flit remainder the node is still blocked
        assert nic.blocked_cycles == 1

    def test_cpu_reply_selected_before_gpu(self):
        fab = make_fabric(mem_injection_buffer_flits=36)
        nic = fab.nic(5)
        g = reply(5, 0, TrafficClass.GPU)
        c = reply(5, 1, TrafficClass.CPU)
        nic.try_send(g, 0)
        nic.try_send(c, 0)
        head = nic.queues[NetKind.REPLY][0]
        assert head is c

    def test_request_queue_uses_packet_count(self):
        fab = make_fabric()
        nic = fab.nic(5)
        for i in range(nic.queue_packets):
            assert nic.try_send(
                Packet(5, 0, MessageType.DELEGATED_REQ, TrafficClass.GPU, 1,
                       requester=1),
                0,
            )
        assert not nic.can_enqueue(NetKind.REQUEST)


@pytest.mark.parametrize("backend", ["object", "vector"])
def test_reply_buffer_never_overfills_on_a_narrow_channel(backend):
    """At 8 B a GPU reply is 17 flits: admission must ask for 17 flits of
    headroom, not the default channel's 9 (the 36-flit buffer used to
    reach 44)."""
    cfg = small_dr_config()
    cfg.noc.channel_width_bytes = 8
    system = build_system(cfg, "HS", "canneal", backend=backend)
    peak = 0
    for _ in range(500):
        system.step()
        for mem in system.memory_nodes:
            assert mem.nic.worst_reply_flits == 17
            assert mem.nic._reply_occ <= mem.nic.reply_buffer_flits
            peak = max(peak, mem.nic._reply_occ)
    assert peak > 36 - 17  # and the buffer does fill: a second reply fits


@st.composite
def _reply_queue_ops(draw):
    """Sends of pre-built replies in any order (so pids arrive shuffled),
    interleaved with delegation scans and head pops."""
    kinds = draw(st.lists(st.sampled_from(["cpu", "gpu", "dgpu"]),
                          min_size=1, max_size=12))
    order = draw(st.permutations(range(len(kinds))))
    ops = [("send", i) for i in order]
    for _ in range(draw(st.integers(0, 8))):
        ops.insert(draw(st.integers(0, len(ops))),
                   (draw(st.sampled_from(["delegate", "pop"])), None))
    return kinds, ops


@pytest.mark.parametrize("backend", ["object", "vector"])
@settings(max_examples=60, deadline=None)
@given(_reply_queue_ops())
def test_reply_queue_head_is_always_the_schedulers_pick(backend, case):
    """The ordered reply deque: whatever the interleaving of CPU / GPU
    sends and delegations, ``popleft()`` yields what a per-attempt
    ``min(key=(cls, pid))`` over the queued replies would."""
    kinds, ops = case
    fabric = build_fabric(
        backend, MeshTopology(4, 4),
        NocConfig(mem_injection_buffer_flits=9 * 14), mem_nodes=(5,),
    )
    nic = fabric.nic(5)
    nic.set_delegation(DelegationConfig())
    pkts = [
        reply(5, 0,
              TrafficClass.CPU if kind == "cpu" else TrafficClass.GPU,
              5 if kind == "cpu" else 9,
              9 if kind == "dgpu" else None)
        for kind in kinds
    ]
    shadow = []
    queue = nic.queues[NetKind.REPLY]

    def pick():
        return min(shadow, key=lambda p: (p.cls, p.pid))

    for op, i in ops:
        if op == "send":
            assert nic.try_send(pkts[i], 0)
            shadow.append(pkts[i])
        elif op == "delegate":
            before = nic.delegations
            nic._delegate_scan(0)
            oldest = [p for p in sorted(shadow, key=lambda p: p.pid)
                      if p.delegate_to is not None]
            oldest = oldest[:nic.delegation.max_delegations_per_cycle]
            assert nic.delegations - before == len(oldest)
            for p in oldest:
                shadow.remove(p)
            nic.queues[NetKind.REQUEST].clear()
        elif shadow:
            want = pick()
            assert queue.popleft() is want
            shadow.remove(want)
        assert (queue[0] if queue else None) is (pick() if shadow else None)
    while shadow:
        want = pick()
        assert queue.popleft() is want
        shadow.remove(want)
    assert not queue


class TestDelegationTrigger:
    def _delegating_nic(self, buffer_flits=36, **delegation):
        fab = make_fabric(mem_injection_buffer_flits=buffer_flits)
        nic = fab.nic(5)
        nic.set_delegation(DelegationConfig(**delegation))
        return fab, nic

    def test_no_delegation_while_replies_flow(self):
        fab, nic = self._delegating_nic()
        nic.try_send(reply(5, 0, delegate_to=9), 0)
        # a second candidate stays queued behind the one injecting
        nic.try_send(reply(5, 1, delegate_to=10), 0)
        nic.inject_step(0)  # reply flits move fine: no pressure
        assert nic.queued(NetKind.REPLY) == 1
        assert nic.delegations == 0

    def test_delegation_when_buffer_full(self):
        fab, nic = self._delegating_nic(buffer_flits=27)
        # fill the buffer with three 9-flit replies; only the head drains
        nic.try_send(reply(5, 0, delegate_to=None), 0)
        nic.try_send(reply(5, 1, delegate_to=9), 0)
        nic.try_send(reply(5, 2, delegate_to=10), 0)
        assert not nic.can_enqueue(NetKind.REPLY)
        nic.inject_step(0)
        assert nic.delegations >= 1
        # the delegated request landed on the request queue
        assert any(
            p.mtype is MessageType.DELEGATED_REQ
            for p in nic.queues[NetKind.REQUEST]
        )

    def test_delegation_respects_per_cycle_cap(self):
        fab, nic = self._delegating_nic(
            buffer_flits=27, max_delegations_per_cycle=1
        )
        for i in range(3):
            nic.try_send(reply(5, i, delegate_to=9 + i), 0)
        nic.inject_step(0)
        assert nic.delegations <= 1

    def test_request_injection_does_not_mask_blocked_reply_path(self):
        # Regression: the trigger must watch the *reply* network only.  A
        # cycle where a 1-flit request injects fine while the reply router
        # refuses every flit is still a blocked reply path (Figure 4).
        fab, nic = self._delegating_nic(buffer_flits=36)
        router = fab.nic(5).rows[NetKind.REPLY].router
        for vc in range(router.vcs):  # reply router full: no reply can inject
            router.inputs[0][vc].occ = router.vc_cap
        nic.try_send(reply(5, 0, delegate_to=9), 0)
        nic.try_send(
            Packet(5, 0, MessageType.READ_REQ, TrafficClass.GPU, 1), 0
        )
        nic.inject_step(0)
        assert nic.flits_injected_net[NetKind.REQUEST] == 1
        assert nic.flits_injected_net[NetKind.REPLY] == 0
        assert nic.delegations == 1

    def test_delegation_moves_packet_accounting_between_networks(self):
        # Regression: converting a queued reply into a delegated request
        # must also move its packets_sent accounting, else noc.rep_packets
        # overcounts by exactly the number of delegations.
        fab, nic = self._delegating_nic(buffer_flits=27)
        for i in range(3):
            nic.try_send(reply(5, i, delegate_to=9 + i), 0)
        sent_rep = nic.packets_sent_net[NetKind.REPLY]
        sent_req = nic.packets_sent_net[NetKind.REQUEST]
        assert sent_rep == 3
        nic.inject_step(0)
        assert nic.delegations >= 1
        assert (
            nic.packets_sent_net[NetKind.REPLY] == sent_rep - nic.delegations
        )
        assert (
            nic.packets_sent_net[NetKind.REQUEST]
            == sent_req + nic.delegations
        )

    def test_non_delegatable_replies_stay(self):
        fab, nic = self._delegating_nic(buffer_flits=27)
        for i in range(3):
            nic.try_send(reply(5, i, delegate_to=None), 0)
        nic.inject_step(0)
        assert nic.delegations == 0

    def test_always_delegate_ablation(self):
        fab, nic = self._delegating_nic(only_when_blocked=False)
        nic.try_send(reply(5, 0, delegate_to=9), 0)
        nic.try_send(reply(5, 1, delegate_to=9), 0)
        nic.inject_step(0)
        assert nic.delegations >= 1


class TestCreatedTimestamp:
    def test_cycle_zero_creation_survives_retried_send(self):
        # Regression: created == 0 is a real timestamp, not the "unset"
        # sentinel; a retried send must not re-stamp it.
        fab = make_fabric()
        pkt = Packet(0, 15, MessageType.READ_REQ, TrafficClass.GPU, 1,
                     created=0)
        assert fab.nic(0).try_send(pkt, 7)
        assert pkt.created == 0

    def test_unset_created_is_stamped_on_first_send(self):
        fab = make_fabric()
        pkt = Packet(0, 15, MessageType.READ_REQ, TrafficClass.GPU, 1)
        assert pkt.created == -1
        assert fab.nic(0).try_send(pkt, 7)
        assert pkt.created == 7


class TestEjectGate:
    def test_gate_consults_callback(self):
        fab = make_fabric()
        nic = fab.nic(0)
        nic.eject_gate = lambda pkt: pkt.cls is TrafficClass.CPU
        cpu_pkt = Packet(1, 0, MessageType.READ_REPLY, TrafficClass.CPU, 5)
        gpu_pkt = Packet(1, 0, MessageType.READ_REPLY, TrafficClass.GPU, 9)
        assert nic.can_eject(cpu_pkt)
        assert not nic.can_eject(gpu_pkt)
