"""Tests for the JSON config-file layer."""

import json

import pytest

from repro.config import Mechanism, SystemConfig, Topology
from repro.config.loader import (
    ConfigError,
    config_from_dict,
    load_config,
    save_config,
)


class TestFromDict:
    def test_empty_dict_gives_table1_defaults(self):
        cfg = config_from_dict({})
        assert cfg == SystemConfig()

    def test_top_level_enum_field(self):
        cfg = config_from_dict({"mechanism": "delegated_replies"})
        assert cfg.mechanism is Mechanism.DELEGATED_REPLIES

    def test_nested_sections(self):
        cfg = config_from_dict(
            {
                "noc": {"channel_width_bytes": 8, "topology": "dragonfly"},
                "gpu_l1": {"size_bytes": 16384},
                "delegation": {"frq_merge": True},
            }
        )
        assert cfg.noc.channel_width_bytes == 8
        assert cfg.noc.topology is Topology.DRAGONFLY
        assert cfg.gpu_l1.size_bytes == 16384
        assert cfg.delegation.frq_merge

    def test_unknown_key_fails_loudly(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            config_from_dict({"nocc": {}})

    def test_unknown_nested_key_fails_with_path(self):
        with pytest.raises(ConfigError, match="chanel_width"):
            config_from_dict({"noc": {"chanel_width": 8}})

    def test_retired_trace_format_key_is_an_unknown_key(self):
        """A saved config from before JSONL became the only trace
        encoding gets what any unknown key gets."""
        with pytest.raises(
            ConfigError, match="unknown config key telemetry.'trace_format'"
        ):
            config_from_dict({"telemetry": {"trace_format": "jsonl"}})

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("noc", "cpu_priority", True),
            ("dram", "t_rc", 40),
            ("dram", "t_ras", 28),
            ("dram", "t_rrd", 6),
            ("gpu_core", "insts_per_mem_op", 8),
        ],
    )
    def test_retired_unread_table1_key_is_an_unknown_key(
        self, section, key, value
    ):
        """The five Table I values nothing read are prose in the class
        docstrings now; a saved config still carrying one (even at its
        old default) gets what any unknown key gets."""
        with pytest.raises(
            ConfigError, match=f"unknown config key {section}.'{key}'"
        ):
            config_from_dict({section: {key: value}})

    def test_bad_enum_value_lists_options(self):
        with pytest.raises(ConfigError, match="torus"):
            config_from_dict({"noc": {"topology": "torus"}})

    def test_section_needs_object(self):
        with pytest.raises(ConfigError, match="section"):
            config_from_dict({"noc": 5})

    def test_bool_field_rejects_non_bool(self):
        with pytest.raises(ConfigError, match="boolean"):
            config_from_dict({"delegation": {"frq_merge": 1}})

    def test_node_mix_revalidated(self):
        with pytest.raises(ValueError):
            config_from_dict({"n_gpu": 41})

    def test_int_to_float_coercion(self):
        cfg = config_from_dict({"noc": {"bandwidth_factor": 2}})
        assert cfg.noc.bandwidth_factor == 2.0
        assert isinstance(cfg.noc.bandwidth_factor, float)


class TestRoundTrip:
    def test_dump_and_rebuild(self):
        cfg = config_from_dict(
            {"layout": "edge", "noc": {"vcs_per_port": 4}}
        )
        data = cfg.to_dict()
        rebuilt = config_from_dict(data)
        assert rebuilt == cfg
        assert data["layout"] == "edge"

    def test_file_roundtrip(self, tmp_path):
        cfg = config_from_dict({"mechanism": "realistic_probing"})
        path = tmp_path / "system.json"
        save_config(cfg, path)
        loaded = load_config(path)
        assert loaded == cfg
        # the file is plain JSON a human can edit
        raw = json.loads(path.read_text())
        assert raw["mechanism"] == "realistic_probing"

    def test_load_rejects_non_object(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_loaded_config_drives_a_simulation(self, tmp_path):
        from repro.sim.simulator import run_simulation

        path = tmp_path / "small.json"
        path.write_text(json.dumps({
            "mesh_width": 4, "mesh_height": 4,
            "n_gpu": 10, "n_cpu": 4, "n_mem": 2,
            "mechanism": "delegated_replies",
        }))
        cfg = load_config(path)
        res = run_simulation(cfg, "HS", None, cycles=300, warmup=200)
        assert res.gpu_ipc > 0
