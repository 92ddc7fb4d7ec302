"""Tests for the Delegated Replies mechanism and the RP probe engine."""

from repro.config.system import DelegationConfig, ProbingConfig
from repro.core.delegated_replies import (
    DelegatedRepliesMechanism,
    ReplyMeta,
    is_delegatable,
)
from repro.core.realistic_probing import ProbeEngine
from repro.noc.packet import MessageType, Packet, TrafficClass


def reply(dst=9, block=0x40, meta=None, cls=TrafficClass.GPU,
          mtype=MessageType.READ_REPLY):
    pkt = Packet(4, dst, mtype, cls, 9, block=block)
    pkt.txn = meta
    return pkt


class TestDelegationPolicy:
    def setup_method(self):
        self.mech = DelegatedRepliesMechanism(DelegationConfig())

    def test_delegatable_reply_becomes_1flit_request(self):
        pkt = reply(dst=9, block=0x40, meta=ReplyMeta(True, delegate_to=7))
        d = self.mech._delegate(pkt, 100)
        assert d is not None
        assert d.mtype is MessageType.DELEGATED_REQ
        assert d.size_flits == 1
        assert d.dst == 7            # towards the likely sharer
        assert d.requester == 9      # sender ID = requesting core
        assert d.block == 0x40
        assert self.mech.stats.delegations == 1

    def test_meta_without_target_not_delegated(self):
        pkt = reply(meta=ReplyMeta(True, None))
        assert self.mech._delegate(pkt, 0) is None

    def test_missing_meta_not_delegated(self):
        assert self.mech._delegate(reply(meta=None), 0) is None

    def test_cpu_reply_never_delegated(self):
        pkt = reply(meta=ReplyMeta(True, delegate_to=7), cls=TrafficClass.CPU)
        assert self.mech._delegate(pkt, 0) is None

    def test_write_ack_never_delegated(self):
        pkt = Packet(4, 9, MessageType.WRITE_ACK, TrafficClass.GPU, 1)
        pkt.txn = ReplyMeta(True, delegate_to=7)
        assert self.mech._delegate(pkt, 0) is None

    def test_is_delegatable_helper(self):
        assert is_delegatable(ReplyMeta(True, delegate_to=3))
        assert not is_delegatable(ReplyMeta(True, None))
        assert not is_delegatable("something else")

    def test_attach_configures_nic_policy(self):
        class FakeNic:
            delegation_policy = None
            delegate_only_when_blocked = None
            max_delegations_per_cycle = None

        nic = FakeNic()
        self.mech.attach(nic)
        assert nic.delegation_policy is not None
        assert nic.delegate_only_when_blocked == self.mech.cfg.only_when_blocked


class TestProbeEngine:
    def make(self, width=4):
        cfg = ProbingConfig(probe_width=width)
        gpu_nodes = list(range(20, 30))
        return ProbeEngine(cfg, 25, gpu_nodes), gpu_nodes

    def test_targets_exclude_self(self):
        eng, nodes = self.make()
        targets = eng.targets_for(0x10)
        assert 25 not in targets
        assert len(targets) == 4
        assert len(set(targets)) == 4

    def test_targets_are_neighbours(self):
        eng, nodes = self.make(width=2)
        assert set(eng.targets_for(0)) == {24, 26}

    def test_probe_width_capped_by_core_count(self):
        cfg = ProbingConfig(probe_width=50)
        eng = ProbeEngine(cfg, 1, [0, 1, 2])
        assert len(eng.targets_for(0)) == 2

    def test_nack_countdown_triggers_fallback(self):
        eng, _ = self.make(width=3)
        eng.begin(0x7, 3)
        assert not eng.on_nack(0x7)
        assert not eng.on_nack(0x7)
        assert eng.on_nack(0x7)          # all probes missed
        assert eng.stats.fallbacks == 1
        assert not eng.is_probing(0x7)

    def test_data_cancels_pending_nacks(self):
        eng, _ = self.make(width=3)
        eng.begin(0x7, 3)
        eng.on_data(0x7)
        assert eng.stats.probe_hits == 1
        assert not eng.on_nack(0x7)      # stale NACK ignored
        assert eng.stats.fallbacks == 0

    def test_predictor_biased_by_region(self):
        eng, _ = self.make()
        shared = sum(eng.should_probe((1 << 32) + i) for i in range(500))
        private = sum(eng.should_probe((2 << 32) + i) for i in range(500))
        assert shared > private * 2
