"""repro.faults: determinism, packet conservation, recovery and the CLI."""

from __future__ import annotations

import json

import pytest
from conftest import small_config, small_dr_config

from repro.__main__ import main
from repro.faults import (
    FaultPlan,
    FlitDrop,
    LinkDown,
    LinkUp,
    PartitionedTopologyError,
    RouterFreeze,
    chaos_plan,
    event_from_dict,
    quiesce,
)
from repro.sim.simulator import build_system, run_simulation

_GPU, _CPU = "BP", "canneal"


def _run(cfg, plan, cycles=1200, warmup=400):
    system = build_system(cfg, _GPU, _CPU, faults=plan)
    result = run_simulation(
        cfg, _GPU, _CPU, cycles=cycles, warmup=warmup, system=system
    )
    return system, result


def _drop_plan(cfg, p=0.2, seed=3):
    """FlitDrop on every reply link out of each memory node."""
    from repro.noc.topology import build_topology
    from repro.sim.layout import build_layout

    topo = build_topology(cfg.noc.topology, cfg.mesh_width, cfg.mesh_height)
    layout = build_layout(cfg)
    events = [
        FlitDrop(at=0, a=mem, b=nb, p=p, net="reply")
        for mem in layout.mem_nodes
        for nb in topo.neighbors(mem)
    ]
    return FaultPlan(events=events, seed=seed)


class TestFaultPlan:
    def test_round_trip(self):
        plan = FaultPlan(
            events=[
                LinkDown(at=10, a=1, b=2),
                LinkUp(at=50, a=1, b=2),
                RouterFreeze(at=5, router=6, cycles=100),
                FlitDrop(at=0, a=3, b=7, p=0.1),
                FlitDrop(at=0, a=7, b=3, p=0.05),
            ],
            seed=11,
        )
        clone = FaultPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
        assert clone.canonical_json() == plan.canonical_json()
        assert clone.plan_hash() == plan.plan_hash()
        assert clone.seed == 11 and len(clone.events) == 5

    def test_unknown_event_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault-event kind"):
            event_from_dict({"kind": "meteor_strike", "at": 0})
        # corruption is a drop: the retired kind is just as unknown
        with pytest.raises(ValueError, match="unknown fault-event kind"):
            event_from_dict({"kind": "flit_corrupt", "at": 0, "p": 0.1})

    def test_bad_net_rejected(self):
        with pytest.raises(ValueError, match="net must be one of"):
            FaultPlan(events=[LinkDown(at=0, a=0, b=1, net="sideband")])

    def test_chaos_plan_deterministic(self):
        cfg = small_config()
        a = chaos_plan(cfg, 0.1, seed=4, warmup=500, cycles=2000)
        b = chaos_plan(cfg, 0.1, seed=4, warmup=500, cycles=2000)
        assert a.plan_hash() == b.plan_hash()
        assert a.active
        assert not chaos_plan(cfg, 0.0).active

    def test_chaos_plan_has_one_loss_event_per_reply_link(self):
        from repro.noc.topology import build_topology
        from repro.sim.layout import build_layout

        cfg = small_config()
        topo = build_topology(cfg.noc.topology, cfg.mesh_width,
                              cfg.mesh_height)
        links = [(mem, nb) for mem in build_layout(cfg).mem_nodes
                 for nb in topo.neighbors(mem)]
        plan = chaos_plan(cfg, 0.15, link_down=False)
        # the drop and corruption shares, summed in the order the two
        # events' probabilities were: the same bound for every draw
        p = round(0.8 * 0.15, 6) + round(0.2 * 0.15, 6)
        assert sorted((ev.a, ev.b) for ev in plan.events) == sorted(links)
        assert all(isinstance(ev, FlitDrop) and ev.p == p and
                   ev.net == "reply" for ev in plan.events)


class TestDeterminism:
    def test_same_plan_same_seed_bit_identical(self):
        plan = chaos_plan(small_config(), 0.15, seed=9, warmup=400,
                          cycles=1200)
        _, a = _run(small_config(), plan)
        _, b = _run(small_config(), plan)
        assert a.counters == b.counters

    def test_different_seed_diverges(self):
        base = chaos_plan(small_config(), 0.15, seed=9, warmup=400,
                          cycles=1200)
        other = FaultPlan.from_dict({**base.to_dict(), "seed": 10})
        _, a = _run(small_config(), base)
        _, b = _run(small_config(), other)
        assert a.counters != b.counters

    def test_empty_plan_identical_to_no_faults(self):
        """An installed-but-empty plan must not perturb the simulation."""
        _, clean = _run(small_config(), None)
        _, armed = _run(small_config(), FaultPlan())
        stripped = {
            k: v for k, v in armed.counters.items()
            if not k.startswith("fault.")
        }
        assert stripped == clean.counters
        assert all(
            v == 0 for k, v in armed.counters.items()
            if k.startswith("fault.")
        )


class TestRecovery:
    def test_drop_conservation_baseline(self):
        cfg = small_config()
        system, _ = _run(cfg, _drop_plan(cfg, p=0.2))
        leftover = quiesce(system)
        s = system.faults.summary()
        assert s["drops"] > 0
        assert s["retransmits"] > 0
        assert s["lost"] == 0
        assert s["outstanding"] == 0
        assert leftover == 0

    def test_drop_conservation_delegated(self):
        """DR's extra reply paths (C2C, DNF fallback) must also conserve."""
        cfg = small_dr_config()
        system, _ = _run(cfg, _drop_plan(cfg, p=0.2))
        leftover = quiesce(system)
        s = system.faults.summary()
        assert s["drops"] > 0
        assert s["lost"] == 0
        assert leftover == 0

    def test_damaged_packets_discarded_at_ejection(self):
        cfg = small_config()
        from repro.noc.topology import build_topology
        from repro.sim.layout import build_layout

        topo = build_topology(cfg.noc.topology, cfg.mesh_width,
                              cfg.mesh_height)
        layout = build_layout(cfg)
        events = [
            FlitDrop(at=0, a=mem, b=nb, p=0.2, net="reply")
            for mem in layout.mem_nodes
            for nb in topo.neighbors(mem)
        ]
        system, _ = _run(cfg, FaultPlan(events=events, seed=5))
        leftover = quiesce(system)
        s = system.faults.summary()
        assert s["drops"] > 0
        assert s["discarded"] > 0
        assert s["lost"] == 0 and leftover == 0

    def test_watchdog_fires_on_frozen_router(self):
        """A hung router holding flits trips the no-progress watchdog."""
        cfg = small_config()
        # freeze an interior router mid-run; tighten the watchdog so it
        # trips well inside the window.  Every fire expires (and resends)
        # all outstanding requests, so give the retry budget enough
        # depth to outlast the freeze — the point here is detection plus
        # eventual recovery, not the retry-exhaustion path.
        plan = FaultPlan(
            events=[RouterFreeze(at=450, router=5, cycles=1200)],
            watchdog_interval=32,
            watchdog_checks=4,
            max_retries=50,
        )
        system, _ = _run(cfg, plan, cycles=2600, warmup=400)
        s = system.faults.summary()
        assert s["watchdog_fires"] > 0
        leftover = quiesce(system)
        assert system.faults.summary()["lost"] == 0
        assert leftover == 0

    def test_link_down_detour_delivers(self):
        """Traffic detours around a link that is down from cycle 0."""
        cfg = small_config()
        # interior horizontal link on the 4x4 mesh (5 <-> 6)
        plan = FaultPlan(events=[LinkDown(at=0, a=5, b=6)])
        system, result = _run(cfg, plan)
        s = system.faults.summary()
        assert s["links_downed"] >= 1
        assert result.gpu_ipc > 0
        leftover = quiesce(system)
        assert system.faults.summary()["lost"] == 0
        assert leftover == 0

    def test_link_up_switches_tables_once_old_packets_drain(self):
        """After a LinkUp the packets routed on the detours finish on them
        (a TableSwitch policy); the dimension-order tables stay installed
        for the rest and take over alone once those packets are gone."""
        from repro.noc.routing import TableSwitch

        cfg = small_config()
        plan = FaultPlan(events=[LinkDown(at=200, a=5, b=6),
                                 LinkUp(at=400, a=5, b=6)])
        system, _ = _run(cfg, plan, cycles=200, warmup=201)
        net = system.fabric.request_net
        topo = net.topology
        assert isinstance(net._policy, TableSwitch)
        assert net.tables[0] is topo.dor_ports(cfg.noc.request_order)
        assert quiesce(system) == 0
        assert net._policy is None and not system.faults._switching

    def test_partition_fails_fast(self):
        cfg = small_config()
        # cut both links of corner router 0 -> unreachable island
        plan = FaultPlan(events=[
            LinkDown(at=0, a=0, b=1),
            LinkDown(at=0, a=0, b=4),
        ])
        with pytest.raises(PartitionedTopologyError):
            _run(cfg, plan, cycles=50, warmup=10)


class TestDetourDrain:
    """Link-down detours are deadlock-free (ROADMAP item 11(d))."""

    def test_one_link_down_mesh_drains(self):
        """A bare 8x8 mesh at 2 VCs, offered 400 packets per 1000
        node-cycles with link 27-28 down from cycle 0, drains to zero
        buffered flits.  The shortest-path detours the up*/down* tables
        replaced left 1,074 flits stuck in this run."""
        from repro.bench.traffic import replay, uniform_schedule
        from repro.config.system import NocConfig
        from repro.faults import FaultController
        from repro.noc import MeshTopology, NocFabric

        fabric = NocFabric(MeshTopology(8, 8), NocConfig(vcs_per_port=2))
        plan = FaultPlan(events=[LinkDown(at=0, a=27, b=28)])
        # a bare fabric has no protocol to retransmit for: the controller
        # only applies the plan, before the first flit moves
        FaultController(plan, fabric, None, set()).on_cycle(0)
        replay(fabric, uniform_schedule(64, 1000, 400, seed=3))

        def queued():
            return any(q for nic in fabric.nics for q in nic.queues.values())

        for cycle in range(1000, 4000):
            if not (fabric.in_flight_flits() or queued()):
                break
            fabric.step(cycle)
        assert fabric.in_flight_flits() == 0 and not queued()


class TestChaosSweepJob:
    def test_plan_changes_sweep_key(self):
        from repro.sweep import JobSpec

        cfg = small_config()
        plan = chaos_plan(cfg, 0.1, seed=1, warmup=400, cycles=1200)
        clean = JobSpec.make(cfg, _GPU, _CPU, cycles=1200, warmup=400)
        chaotic = JobSpec.make(cfg, _GPU, _CPU, cycles=1200, warmup=400,
                               faults=plan)
        assert clean.key() != chaotic.key()
        assert chaotic.fault_plan().plan_hash() == plan.plan_hash()
        assert clean.fault_plan() is None
        # wire format round-trips the plan
        assert JobSpec.from_dict(chaotic.to_dict()).key() == chaotic.key()


class TestFaultsCli:
    def test_plan_then_run_round_trip(self, tmp_path, capsys):
        out = tmp_path / "plan.json"
        assert main(["faults", "plan", "--intensity", "0.1", "--seed", "2",
                     "--out", str(out)]) == 0
        plan = FaultPlan.from_dict(json.loads(out.read_text()))
        assert plan.active

        rc = main(["faults", "run", "--gpu", "BP", "--mechanism", "dr",
                   "--cycles", "600", "--warmup", "200",
                   "--plan", str(out)])
        stdout = capsys.readouterr().out
        assert rc == 0
        assert "OK: every injected fault recovered" in stdout

    def test_a_retired_event_kind_is_one_error_line(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"events": [
            {"kind": "flit_corrupt", "at": 0, "a": 1, "b": 2, "p": 0.1}
        ]}))
        assert main(["faults", "run", "--cycles", "10", "--warmup", "5",
                     "--plan", str(plan)]) == 2
        err = capsys.readouterr().err
        assert err == "error: unknown fault-event kind 'flit_corrupt'\n"

    def test_run_reports_counters(self, capsys):
        rc = main(["faults", "run", "--gpu", "BP", "--cycles", "600",
                   "--warmup", "200", "--intensity", "0.1", "--seed", "4"])
        stdout = capsys.readouterr().out
        assert rc == 0
        assert "retransmits" in stdout and "lost" in stdout

    def test_run_emits_json(self, capsys):
        rc = main(["faults", "run", "--gpu", "BP", "--cycles", "600",
                   "--warmup", "200", "--intensity", "0.1", "--seed", "4",
                   "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["ok"] is True
        assert payload["faults"]["lost"] == 0
        assert payload["plan_events"] > 0
        assert payload["mechanism"] == "dr"

    def test_sweep_emits_json(self, capsys):
        rc = main(["faults", "sweep", "--benchmarks", "BP", "--cycles", "400",
                   "--warmup", "200", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["rows"] and "data" in payload
