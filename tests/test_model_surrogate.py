"""The analytical surrogate's own bookkeeping: flow groups, composition
and the saturation verdict, checked on small configs without simulating.

``tests/test_model_validation.py`` holds the surrogate against the
simulator; this file holds the pieces that comparison rests on — the
route walk that turns a traffic mix into per-link load
(:mod:`repro.model.loads`), the invariants of a
:class:`~repro.model.compose.Prediction`, and the screening records
(:mod:`repro.model.saturation`).
"""

from __future__ import annotations

import pytest
from conftest import small_config, small_dr_config, small_rp_config

from repro.config import Topology
from repro.model import compose
from repro.model.compose import (
    MAX_ITERS,
    RHO_CAP,
    Prediction,
    _network_and_groups,
    link_name,
    predict,
)
from repro.model.loads import NetworkModel
from repro.model.saturation import (
    CLOGGED_RHO,
    NEAR_RHO,
    ScreenDecision,
    SaturationReport,
    assess,
)
from repro.model.validate import _quantile, _ranks
from repro.noc.packet import NetKind, TrafficClass
from repro.noc.routing import route_path
from repro.sweep import JobSpec

GPUS = ("HS", "BP", "BT", "NN")
MAKERS = {
    "baseline": small_config,
    "dr": small_dr_config,
    "rp": small_rp_config,
}


def group_endpoint_sums(group, kind):
    return sum(c for link, c in group.counts.items() if link[0] == kind)


class TestNetworkModel:
    def test_uniform_pairs_skip_self_pairs(self):
        net = NetworkModel(small_config())
        pairs = net.uniform_pairs([0, 1, 2], [1, 2, 3])
        assert all(s != d for s, d, _ in pairs)
        assert len(pairs) == 3 * 3 - 2
        assert {w for _, _, w in pairs} == {1.0}

    def test_one_packet_injects_and_ejects_once(self):
        net = NetworkModel(small_config())
        pl = net.placement
        group = net.flow_group(
            "g", net.uniform_pairs(pl.gpu_nodes, pl.mem_nodes),
            TrafficClass.GPU, NetKind.REQUEST, 1,
        )
        assert group_endpoint_sums(group, "inj") == pytest.approx(1.0)
        assert group_endpoint_sums(group, "ej") == pytest.approx(1.0)

    def test_ejections_land_only_on_the_destinations(self):
        net = NetworkModel(small_config())
        pl = net.placement
        group = net.flow_group(
            "g", net.uniform_pairs(pl.gpu_nodes, pl.mem_nodes),
            TrafficClass.GPU, NetKind.REQUEST, 1,
        )
        ejected = {link[2] for link in group.counts if link[0] == "ej"}
        injected = {link[2] for link in group.counts if link[0] == "inj"}
        assert ejected == set(pl.mem_nodes)
        assert injected == set(pl.gpu_nodes)

    def test_router_links_join_neighbours(self):
        net = NetworkModel(small_config())
        pl = net.placement
        group = net.flow_group(
            "g", net.uniform_pairs(pl.mem_nodes, pl.gpu_nodes),
            TrafficClass.GPU, NetKind.REPLY, 5,
        )
        hops = [link for link in group.counts if link[0] == "link"]
        assert hops
        for _kind, _phys, a, b in hops:
            assert b in net.topology.neighbors(a)

    def test_mean_hops_is_the_weighted_route_length(self):
        net = NetworkModel(small_config())
        pairs = [(0, 5, 1.0), (3, 12, 3.0)]
        group = net.flow_group("g", pairs, TrafficClass.CPU,
                               NetKind.REQUEST, 1)
        table = net.tables[NetKind.REQUEST]
        lengths = [len(route_path(net.topology, table, s, d)) - 1
                   for s, d, _ in pairs]
        assert group.mean_hops == pytest.approx(
            0.25 * lengths[0] + 0.75 * lengths[1])

    def test_link_counts_sum_to_mean_hops(self):
        net = NetworkModel(small_config())
        pl = net.placement
        group = net.flow_group(
            "g", net.uniform_pairs(pl.cpu_nodes, pl.mem_nodes),
            TrafficClass.CPU, NetKind.REQUEST, 1,
        )
        assert group_endpoint_sums(group, "link") == pytest.approx(
            group.mean_hops)

    def test_self_and_weightless_pairs_carry_nothing(self):
        net = NetworkModel(small_config())
        group = net.flow_group("g", [(4, 4, 1.0), (0, 5, 0.0)],
                               TrafficClass.GPU, NetKind.REQUEST, 1)
        assert group.counts == {}
        assert group.mean_hops == 0.0

    def test_separate_networks_key_links_by_net(self):
        cfg = small_config()
        cfg.noc.separate_physical_networks = True
        net = NetworkModel(cfg)
        group = net.flow_group("g", [(0, 5, 1.0)], TrafficClass.GPU,
                               NetKind.REPLY, 1)
        assert {link[1] for link in group.counts} == {int(NetKind.REPLY)}

    def test_shared_network_keys_every_link_on_network_zero(self):
        cfg = small_config()
        cfg.noc.separate_physical_networks = False
        net = NetworkModel(cfg)
        group = net.flow_group("g", [(0, 5, 1.0)], TrafficClass.GPU,
                               NetKind.REPLY, 1)
        assert {link[1] for link in group.counts} == {0}

    @pytest.mark.parametrize("flits", [1, 2, 5, 9])
    def test_service_cycles_is_flits_over_bandwidth_at_least_one(self, flits):
        net = NetworkModel(small_config())
        assert net.service_cycles(flits) == max(1.0, flits / net.bandwidth)


@pytest.mark.parametrize("link, name", [
    (("link", 0, 3, 4), "req:3->4"),
    (("link", 1, 7, 6), "rep:7->6"),
    (("inj", 1, 5), "rep:inj@5"),
    (("ej", 0, 2), "req:ej@2"),
])
def test_link_name(link, name):
    assert link_name(link) == name


class TestFlowGroups:
    @pytest.mark.parametrize("mechanism, extra", [
        ("baseline", set()),
        ("dr", {"dreq", "c2c"}),
        ("rp", {"probe", "nack", "c2c_rp"}),
    ])
    def test_each_mechanism_adds_only_its_own_streams(self, mechanism, extra):
        _net, groups, _flat = _network_and_groups(MAKERS[mechanism](), True)
        base = {"gpu_req", "gpu_wreq", "gpu_rep", "gpu_wack",
                "cpu_req", "cpu_rep"}
        assert set(groups) == base | extra

    def test_a_gpu_only_run_has_no_cpu_streams(self):
        _net, groups, (_links, _entries, cpu_mix) = _network_and_groups(
            small_config(), False)
        assert not {"cpu_req", "cpu_rep"} & set(groups)
        assert cpu_mix == 0.0

    def test_delegated_streams_run_on_the_documented_networks(self):
        _net, groups, _flat = _network_and_groups(small_dr_config(), True)
        assert groups["dreq"].net is NetKind.REQUEST
        assert groups["c2c"].net is NetKind.REPLY
        assert groups["c2c"].flits == groups["gpu_rep"].flits

    @pytest.mark.parametrize("topology", [
        Topology.MESH, Topology.CROSSBAR, Topology.FLATTENED_BUTTERFLY,
    ])
    def test_cpu_and_gpu_requests_share_no_link(self, topology):
        """Mesh, crossbar and flattened butterfly keep the CPU approach to
        memory off the GPU request flood's links (``K_FIFO_MIX`` overlap
        0)."""
        cfg = small_config()
        cfg.noc.topology = topology
        _net, _groups, (_links, _entries, cpu_mix) = _network_and_groups(
            cfg, True)
        assert cpu_mix == 0.0

    def test_the_flat_index_covers_every_touched_link_once(self):
        _net, groups, (links, entries, _mix) = _network_and_groups(
            small_rp_config(), True)
        assert len(links) == len(set(links))
        for name, group in groups.items():
            assert {links[i]: c for i, c in entries[name]} == group.counts

    def test_routes_are_cached_per_config(self):
        cfg = small_config()
        first = _network_and_groups(cfg, True)
        assert _network_and_groups(cfg.copy(), True) is first
        assert _network_and_groups(cfg, False) is not first

    def test_the_route_cache_is_bounded(self, monkeypatch):
        monkeypatch.setattr(compose, "_MODEL_CACHE", {})
        monkeypatch.setattr(compose, "_MODEL_CACHE_MAX", 2)
        for vcs in (2, 3, 4):
            cfg = small_config()
            cfg.noc.vcs_per_port = vcs
            _network_and_groups(cfg, True)
        assert len(compose._MODEL_CACHE) == 2


class TestPrediction:
    @pytest.mark.parametrize("mechanism", list(MAKERS))
    @pytest.mark.parametrize("gpu", GPUS)
    def test_carried_load_never_exceeds_the_cap(self, mechanism, gpu):
        pred = predict(MAKERS[mechanism](), gpu, "canneal")
        assert pred.max_rho <= RHO_CAP + 1e-9
        assert pred.saturated == (pred.demand_rho > RHO_CAP)
        assert 1 <= pred.iterations <= MAX_ITERS

    @pytest.mark.parametrize("gpu", GPUS)
    def test_delegation_thins_the_bottleneck_demand(self, gpu):
        base = predict(small_config(), gpu, "canneal")
        dr = predict(small_dr_config(), gpu, "canneal")
        assert base.delegated_fraction == 0.0
        assert 0.0 < dr.delegated_fraction <= 1.0
        assert dr.demand_rho < base.demand_rho

    @pytest.mark.parametrize("gpu", GPUS)
    def test_the_clogged_baseline_waits_on_a_memory_reply_link(self, gpu):
        """The paper's bottleneck: one reply injection link per memory
        node."""
        cfg = small_config()
        pred = predict(cfg, gpu, "canneal")
        assert pred.saturated
        net, _kind, node = pred.bottleneck.partition(":inj@")
        assert net == "rep"
        assert int(node) in NetworkModel(cfg).placement.mem_nodes

    def test_hot_links_are_the_hottest_twelve_in_order(self):
        pred = predict(small_rp_config(), "HS", "canneal")
        rhos = list(pred.link_rho.values())
        assert 0 < len(rhos) <= 12
        assert rhos == sorted(rhos, reverse=True)
        assert min(rhos) >= 0.5
        assert max(rhos) == pytest.approx(pred.max_rho)

    def test_a_gpu_only_run_predicts_no_cpu_figures(self):
        pred = predict(small_config(), "HS")
        assert pred.cpu == ""
        assert (pred.cpu_latency_avg, pred.cpu_latency_p95,
                pred.cpu_ipc) == (0.0, 0.0, 0.0)
        assert pred.gpu_ipc > 0.0

    def test_predictions_are_deterministic(self):
        cfg = small_dr_config()
        assert (predict(cfg, "BT", "canneal").to_dict()
                == predict(cfg.copy(), "BT", "canneal").to_dict())

    def test_to_dict_names_every_field_and_copies_link_rho(self):
        pred = Prediction(gpu="HS", cpu="canneal", mechanism="baseline",
                          link_rho={"rep:inj@1": 0.87})
        d = pred.to_dict()
        assert set(d) == set(Prediction.__dataclass_fields__)
        d["link_rho"]["rep:inj@1"] = 0.0
        assert pred.link_rho == {"rep:inj@1": 0.87}


class TestAssess:
    def test_links_split_at_the_clogged_and_near_thresholds(self):
        pred = Prediction(
            gpu="X", cpu="y", mechanism="baseline", saturated=True,
            demand_rho=2.0, bottleneck="rep:inj@1",
            link_rho={"a": 0.95, "b": CLOGGED_RHO, "c": 0.89,
                      "d": NEAR_RHO, "e": 0.69},
        )
        report = assess(pred)
        assert set(report.clogged_links) == {"a", "b"}
        assert set(report.near_links) == {"c", "d"}

    def test_near_verdict_counts_the_near_links(self):
        pred = Prediction(gpu="X", cpu="y", mechanism="baseline",
                          demand_rho=0.8, link_rho={"a": 0.75, "b": 0.8})
        assert assess(pred).verdict == (
            f"near saturation (2 links above {NEAR_RHO:g})")

    def test_report_to_dict_round_trips_its_fields(self):
        report = SaturationReport(
            saturated=True, demand_rho=3.0, bottleneck="rep:inj@1",
            clogged_links={"a": 0.95}, near_links={"b": 0.75},
            verdict="clogged",
        )
        d = report.to_dict()
        assert SaturationReport(**d) == report
        d["clogged_links"]["a"] = 0.0
        assert report.clogged_links == {"a": 0.95}


class TestScreenDecision:
    def decision(self):
        specs = [
            JobSpec.make(small_config(), gpu, "canneal", cycles=100,
                         warmup=50, label=("gpu", gpu) if gpu != "BT" else ())
            for gpu in ("HS", "BP", "BT")
        ]
        preds = [
            Prediction(gpu=s.gpu, cpu="canneal", mechanism="baseline",
                       demand_rho=rho, cpu_latency_avg=lat)
            for s, rho, lat in zip(specs, (2.0, 0.1234, 0.2), (10.04, 20.06, 3.0))
        ]
        return ScreenDecision(specs, preds, [True, False, False], 0.35)

    def test_kept_and_skipped_partition_the_specs_in_order(self):
        d = self.decision()
        assert d.kept == [d.specs[0]]
        assert [s for s, _ in d.skipped] == list(d.specs[1:])
        assert [p for _, p in d.skipped] == d.predictions[1:]

    def test_skipped_records_round_and_label_the_points(self):
        d = self.decision()
        bp, bt = d.skipped_records()
        assert bp == {"key": d.specs[1].key(), "label": ["gpu", "BP"],
                      "demand_rho": 0.123, "predicted_cpu_latency": 20.1}
        assert bt["label"] == [d.specs[2].describe()]


class TestRankStatistics:
    def test_ranks_are_one_based(self):
        assert _ranks([30.0, 10.0, 20.0]) == [3.0, 1.0, 2.0]

    def test_ties_share_their_mean_rank(self):
        assert _ranks([5.0, 1.0, 5.0, 5.0]) == [3.0, 1.0, 3.0, 3.0]

    def test_quantile_interpolates_between_neighbours(self):
        vals = [0.0, 10.0, 20.0, 30.0]
        assert _quantile(vals, 0.0) == 0.0
        assert _quantile(vals, 1.0) == 30.0
        assert _quantile(vals, 0.5) == pytest.approx(15.0)

    def test_quantile_of_nothing_is_zero(self):
        assert _quantile([], 0.5) == 0.0
