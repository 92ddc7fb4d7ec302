"""Tests for the configuration layer (Table I)."""

import dataclasses

import pytest

from repro.config import (
    DimensionOrder,
    Layout,
    Mechanism,
    NocConfig,
    SystemConfig,
    Topology,
    baseline_config,
    delegated_replies_config,
    realistic_probing_config,
)


class TestTable1Defaults:
    def test_node_counts(self):
        cfg = baseline_config()
        assert cfg.n_gpu == 40
        assert cfg.n_cpu == 16
        assert cfg.n_mem == 8
        assert cfg.n_nodes == 64

    def test_mesh_is_8x8(self):
        cfg = baseline_config()
        assert (cfg.mesh_width, cfg.mesh_height) == (8, 8)
        assert cfg.noc.topology is Topology.MESH

    def test_gpu_l1_geometry(self):
        l1 = baseline_config().gpu_l1
        assert l1.size_bytes == 48 * 1024
        assert l1.assoc == 4
        assert l1.line_bytes == 128
        assert l1.num_sets == 96

    def test_cpu_l1_geometry(self):
        l1 = baseline_config().cpu_l1
        assert l1.size_bytes == 32 * 1024
        assert l1.line_bytes == 64
        assert l1.num_sets == 128

    def test_llc_geometry(self):
        llc = baseline_config().llc
        assert llc.slice_size_bytes == 1024 * 1024
        assert llc.assoc == 16
        assert llc.sets_per_slice == 512

    def test_gddr5_timings(self):
        d = baseline_config().dram
        assert (d.t_cl, d.t_rp) == (12, 12)
        assert (d.t_rcd, d.t_ccd, d.t_wr) == (12, 2, 12)
        assert d.banks == 16

    def test_noc_parameters(self):
        noc = baseline_config().noc
        assert noc.channel_width_bytes == 16
        assert noc.vcs_per_port == 2
        assert noc.vc_depth_flits == 4
        assert noc.router_pipeline_cycles == 4

    def test_baseline_cdr_orders(self):
        noc = baseline_config().noc
        assert noc.request_order is DimensionOrder.YX
        assert noc.reply_order is DimensionOrder.XY

    def test_warps_per_core(self):
        assert baseline_config().gpu_core.warps == 48


class TestFlitSizing:
    """Section II: a reply is a header flit plus 8 data flits for 128 B."""

    def test_gpu_reply_is_9_flits(self):
        noc = NocConfig()
        assert noc.flits_for(128) == 9

    def test_cpu_reply_is_5_flits(self):
        assert NocConfig().flits_for(64) == 5

    def test_request_is_1_flit(self):
        assert NocConfig().flits_for(0) == 1

    def test_wider_channel_fewer_flits(self):
        noc = NocConfig(channel_width_bytes=32)
        assert noc.flits_for(128) == 5

    def test_narrow_channel_more_flits(self):
        noc = NocConfig(channel_width_bytes=8)
        assert noc.flits_for(128) == 17

    def test_partial_flit_rounds_up(self):
        assert NocConfig().flits_for(100) == 1 + 7


class TestFactories:
    def test_baseline_mechanism(self):
        assert baseline_config().mechanism is Mechanism.BASELINE

    def test_dr_factory_enables_delegation(self):
        cfg = delegated_replies_config()
        assert cfg.mechanism is Mechanism.DELEGATED_REPLIES
        assert cfg.delegation_active and not cfg.probing_active

    def test_rp_factory_enables_probing(self):
        cfg = realistic_probing_config()
        assert cfg.mechanism is Mechanism.REALISTIC_PROBING
        assert cfg.probing_active and not cfg.delegation_active

    def test_factory_overrides(self):
        cfg = baseline_config(layout=Layout.EDGE)
        assert cfg.layout is Layout.EDGE


class TestCopySemantics:
    def test_copy_is_deep_for_nested_configs(self):
        a = baseline_config()
        b = a.copy()
        b.noc.channel_width_bytes = 8
        assert a.noc.channel_width_bytes == 16

    def test_copy_override_unknown_field_raises(self):
        with pytest.raises(AttributeError):
            baseline_config().copy(not_a_field=1)

    def test_invalid_node_mix_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig(n_gpu=40, n_cpu=16, n_mem=9)

    def test_config_is_dataclass(self):
        assert dataclasses.is_dataclass(SystemConfig)


class TestStableSerialisation:
    """`to_dict`/`config_hash`: the sweep cache key's foundation."""

    def test_to_dict_is_json_compatible(self):
        import json

        d = delegated_replies_config().to_dict()
        assert d["mechanism"] == "delegated_replies"
        assert "enabled" not in d["delegation"]  # mechanism is the switch
        json.dumps(d)  # no enums or dataclasses left behind

    def test_round_trips_through_loader(self):
        from repro.config import config_from_dict

        for factory in (baseline_config, delegated_replies_config,
                        realistic_probing_config):
            cfg = factory()
            again = config_from_dict(cfg.to_dict())
            assert again == cfg
            assert again.config_hash() == cfg.config_hash()

    def test_hash_is_order_independent(self):
        from repro.config import config_from_dict

        a = config_from_dict(
            {"mechanism": "delegated_replies",
             "noc": {"channel_width_bytes": 8, "vcs_per_port": 4}}
        )
        b = config_from_dict(
            {"noc": {"vcs_per_port": 4, "channel_width_bytes": 8},
             "mechanism": "delegated_replies"}
        )
        assert a.config_hash() == b.config_hash()

    def test_hash_tracks_every_layer(self):
        base = baseline_config()
        top = base.copy(layout=Layout.EDGE)
        nested = baseline_config()
        nested.dram.banks = 8
        hashes = {base.config_hash(), top.config_hash(),
                  nested.config_hash(),
                  delegated_replies_config().config_hash()}
        assert len(hashes) == 4

    def test_hash_is_stable_across_calls(self):
        cfg = baseline_config()
        assert cfg.config_hash() == cfg.config_hash()
        assert len(cfg.config_hash()) == 64
