"""Tests for the Delegated Replies conversion, the RP probe engine and
the one switch that turns either on."""

import pytest

from repro.config import Mechanism, config_from_dict, mechanism_config
from repro.config.system import DelegationConfig, NocConfig, ProbingConfig
from repro.core.realistic_probing import ProbeEngine
from repro.noc import MeshTopology, NocFabric
from repro.noc.packet import MessageType, NetKind, Packet, TrafficClass
from repro.sim.simulator import build_system


def reply(dst=9, block=0x40, delegate_to=None, cls=TrafficClass.GPU):
    return Packet(4, dst, MessageType.READ_REPLY, cls, 9, block=block,
                  delegate_to=delegate_to)


class TestDelegationConversion:
    def setup_method(self):
        fabric = NocFabric(MeshTopology(4, 4), NocConfig(), mem_nodes=(4,))
        self.cfg = DelegationConfig()
        self.nic = fabric.nic(4)
        self.nic.set_delegation(self.cfg)

    def _convert(self, pkt, cycle=0):
        """Queue ``pkt`` and run one delegation scan; the request it
        became, or None."""
        assert self.nic.try_send(pkt, cycle)
        self.nic._delegate_scan(cycle)
        requests = self.nic.queues[NetKind.REQUEST]
        return requests[0] if requests else None

    def test_delegatable_reply_becomes_1flit_request(self):
        d = self._convert(reply(dst=9, block=0x40, delegate_to=7), 100)
        assert d is not None
        assert d.mtype is MessageType.DELEGATED_REQ
        assert d.size_flits == 1
        assert d.dst == 7            # towards the likely sharer
        assert d.requester == 9      # sender ID = requesting core
        assert d.block == 0x40
        assert d.created == 100
        assert self.nic.delegations == 1
        assert not self.nic.queues[NetKind.REPLY]

    def test_reply_without_delegate_not_delegated(self):
        assert self._convert(reply(delegate_to=None)) is None
        assert self.nic.delegations == 0

    def test_set_delegation_configures_nic(self):
        assert self.nic.delegation is self.cfg
        assert self.nic.delegate_only_when_blocked == self.cfg.only_when_blocked
        self.nic.set_delegation(DelegationConfig(only_when_blocked=False))
        assert not self.nic.delegate_only_when_blocked

    def test_no_config_never_delegates(self):
        self.nic.set_delegation(None)
        assert self._convert(reply(delegate_to=7)) is None
        assert self.nic.delegation_scans == 0


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


@pytest.mark.parametrize(
    "data",
    [
        {"delegation": {"only_when_blocked": False}},  # section, no selector
        {"mechanism": "delegated_replies"},  # the selector alone
        {"probing": {"probe_width": 3}},
        {"mechanism": "realistic_probing"},
        {"mechanism": "delegated_replies", "probing": {"probe_width": 3}},
        {"mechanism": "realistic_probing",
         "delegation": {"only_when_blocked": False}},
    ],
    ids=["dr-switch-only", "dr-selector-only",
         "rp-switch-only", "rp-selector-only",
         "dr-with-rp-section", "rp-with-dr-section"],
)
def test_mechanism_alone_enables_a_mechanism(data):
    # ``mechanism`` is the whole switch: the selector alone runs the
    # mechanism, and a mechanism's section without its selector is inert,
    # for the built system and the config hash alike
    cfg = config_from_dict(data)
    system = build_system(cfg, "HS", "canneal")
    runs_dr = cfg.mechanism is Mechanism.DELEGATED_REPLIES
    runs_rp = cfg.mechanism is Mechanism.REALISTIC_PROBING
    assert all((mem.nic.delegation is not None) == runs_dr
               for mem in system.memory_nodes)
    assert all((core.probe is not None) == runs_rp
               for core in system.gpu_cores)
    assert cfg.config_hash() == mechanism_config(cfg.mechanism.value).config_hash()
