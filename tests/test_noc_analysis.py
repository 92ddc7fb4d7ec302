"""Tests for the NoC utilization analysis utilities."""

from repro.config.system import NocConfig
from repro.noc import MeshTopology, MessageType, NocFabric, Packet, TrafficClass
from repro.noc.analysis import (
    hottest_links,
    link_loads,
    link_utilization_summary,
    render_mesh_heatmap,
)
from repro.noc.topology import CrossbarTopology
from repro.sim.simulator import build_system

import sys
sys.path.insert(0, "tests")
from conftest import small_config, small_dr_config


def loaded_fabric(cycles=300):
    fab = NocFabric(MeshTopology(4, 4), NocConfig(), mem_nodes=(5,))
    for nic in fab.nics:
        nic.handler = lambda pkt, cyc: None
    for cyc in range(cycles):
        pkt = Packet(0, 3, MessageType.READ_REPLY, TrafficClass.GPU, 9,
                     created=cyc)
        fab.nic(0).try_send(pkt, cyc)
        fab.step(cyc)
    return fab


class TestLinkLoads:
    def test_every_directed_link_reported(self):
        fab = loaded_fabric(10)
        loads = link_loads(fab.reply_net)
        assert len(loads) == 2 * len(fab.topology.links())

    def test_utilization_bounded(self):
        fab = loaded_fabric()
        for load in link_loads(fab.reply_net):
            assert 0.0 <= load.utilization <= 1.0

    def test_hot_path_identified(self):
        fab = loaded_fabric()
        hot = hottest_links(fab.reply_net, n=3)
        # the stream 0 -> 3 runs along the top row
        hot_pairs = {(l.src, l.dst) for l in hot}
        assert hot_pairs <= {(0, 1), (1, 2), (2, 3)}
        assert hot[0].utilization >= hot[-1].utilization

    def test_same_loads_on_both_kernels(self):
        # the helpers read only what both kernels' networks expose (the
        # vector kernel is what the code itself selects on a big mesh)
        per_backend = []
        for backend in ("object", "vector"):
            system = build_system(small_dr_config(), "SC", "bodytrack",
                                  backend=backend)
            system.run(300)
            net = system.fabric.reply_net
            loads = link_loads(net)
            assert hottest_links(net, n=5) == sorted(
                loads, key=lambda l: -l.utilization)[:5]
            assert link_utilization_summary(net)["links"] == len(loads)
            per_backend.append(loads)
        assert per_backend[0] == per_backend[1]
        assert any(load.flits for load in per_backend[0])

    def test_idle_network_summary(self):
        fab = NocFabric(MeshTopology(4, 4), NocConfig(), mem_nodes=())
        s = link_utilization_summary(fab.reply_net)
        assert s["mean"] == 0.0 and s["links"] > 0

    def test_summary_statistics(self):
        # one hot path among many idle links: p95 may be zero, the mean
        # and max must not be
        fab = loaded_fabric()
        s = link_utilization_summary(fab.reply_net)
        assert s["max"] >= s["p95"]
        assert s["max"] >= s["mean"] > 0


class TestInjectionLoads:
    def test_source_node_dominates(self):
        fab = loaded_fabric()
        net = fab.reply_net
        loads = {
            nic.node_id: nic.flits_injected / (net.cycles * net.bandwidth)
            for nic in net.nics
        }
        assert loads[0] == max(loads.values())
        assert loads[0] > 0.5


class TestHeatmap:
    def test_renders_grid_with_roles(self):
        system = build_system(small_config(), "HS", "vips")
        system.run(300)
        art = render_mesh_heatmap(system.fabric.reply_net, system.layout)
        lines = art.splitlines()
        assert len(lines) == 4 + 1  # 4 rows + legend
        joined = "".join(lines[:-1])
        assert "M" in joined and "C" in joined and "G" in joined

    def test_non_mesh_degrades_to_table(self):
        # no 2-D arrangement to draw: the heatmap degrades to a
        # per-router load table instead of raising
        fab = NocFabric(CrossbarTopology(16), NocConfig(), mem_nodes=())
        out = render_mesh_heatmap(fab.reply_net)
        assert "CrossbarTopology" in out
        assert "per-router load table" in out
        lines = out.splitlines()
        # header lines + one row per router + peak legend
        assert len(lines) == 2 + 16 + 1
        assert any(line.lstrip().startswith("15 ") for line in lines)

    def test_non_mesh_table_reflects_traffic(self):
        fab = NocFabric(CrossbarTopology(8), NocConfig(), mem_nodes=())
        for nic in fab.nics:
            nic.handler = lambda pkt, cyc: None
        for cyc in range(50):
            fab.nic(0).try_send(
                Packet(0, 5, MessageType.READ_REPLY, TrafficClass.GPU, 9,
                       created=cyc),
                cyc,
            )
            fab.step(cyc)
        out = render_mesh_heatmap(fab.reply_net)
        assert "#" in out  # some router saw flits
