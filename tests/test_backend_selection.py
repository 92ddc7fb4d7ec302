"""The kernel is chosen in one place, from what a run is and needs
(:func:`repro.sim.engines.select_backend`)."""

from __future__ import annotations

from math import isqrt

import pytest

from repro.config import (
    baseline_config,
    delegated_replies_config,
    table1_mix,
)
from repro.config.system import NocConfig, RoutingPolicy, Topology
from repro.faults.plan import FaultPlan, FlitDrop, LinkDown, RouterFreeze
from repro.sim.engines import (
    ENV_VAR, VECTOR_ABOVE_NODES, BackendError, select_backend,
)
from repro.sim.simulator import build_system, run_simulation
from repro.sweep import JobSpec

MESH = NocConfig()
#: the side of the widest square mesh the object kernel keeps
EDGE = isqrt(VECTOR_ABOVE_NODES)
#: a node count past the crossover (the narrowest square mesh past it)
BIG = (EDGE + 1) ** 2
LOSS = FaultPlan(events=[FlitDrop(at=0, a=0, b=1, p=0.1)])
LINK_DOWN = FaultPlan(events=[FlitDrop(at=0, a=0, b=1, p=0.1),
                              LinkDown(at=5, a=1, b=2)])
FREEZE = FaultPlan(events=[RouterFreeze(at=5, router=3, cycles=10)])


@pytest.fixture(autouse=True)
def _no_env(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)


@pytest.mark.parametrize("nodes,noc,telemetry,faults,expect", [
    (8 * 8, MESH, False, None, "object"),
    (EDGE * EDGE, MESH, False, None, "object"),
    (BIG, MESH, False, None, "vector"),
    (32 * 32, MESH, False, None, "vector"),
    # node count alone is the wrong observable: the high-radix
    # topologies lose on the vector kernel whatever their size
    (BIG, NocConfig(topology=Topology.CROSSBAR), False, None, "object"),
    (BIG, NocConfig(topology=Topology.FLATTENED_BUTTERFLY), False, None,
     "object"),
    (BIG, NocConfig(topology=Topology.DRAGONFLY), False, None, "object"),
    # a big mesh that needs what only the object kernel has
    (BIG, MESH, True, None, "object"),
    (BIG, NocConfig(routing=RoutingPolicy.DYXY), False, None, "object"),
    (BIG, MESH, False, LINK_DOWN, "object"),
    (BIG, MESH, False, FREEZE, "object"),
    (BIG, MESH, False, LOSS, "vector"),
])
def test_unnamed_selection_is_the_faster_kernel_that_can_do_the_run(
    nodes, noc, telemetry, faults, expect
):
    assert select_backend(None, nodes, noc, telemetry, faults) == expect


@pytest.mark.parametrize("nodes", [64, BIG])
@pytest.mark.parametrize("name", ["object", "vector"])
def test_a_named_kernel_is_obeyed_on_either_side_of_the_threshold(name, nodes):
    assert select_backend(name, nodes, MESH) == name


@pytest.mark.parametrize("noc,telemetry,faults,need", [
    (MESH, True, None, "telemetry"),
    (NocConfig(routing=RoutingPolicy.HARE), False, None, "adaptive routing"),
    (MESH, False, LINK_DOWN, "link-down"),
    (MESH, False, FREEZE, "router-freeze"),
])
def test_vector_named_with_a_listed_need_is_one_line_naming_it(
    noc, telemetry, faults, need
):
    with pytest.raises(BackendError) as exc:
        select_backend("vector", BIG, noc, telemetry, faults)
    msg = str(exc.value)
    assert need in msg and "'vector'" in msg and "\n" not in msg
    # the object kernel runs all of it
    assert select_backend("object", BIG, noc, telemetry, faults) == "object"


def test_env_var_is_read_only_when_no_name_is_passed(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "vector")
    assert select_backend(None, 64, MESH) == "vector"
    assert select_backend("object", BIG, MESH) == "object"
    with pytest.raises(BackendError, match="telemetry"):
        select_backend(None, 64, MESH, telemetry=True)
    monkeypatch.setenv(ENV_VAR, "turbo")
    assert select_backend("object", 64, MESH) == "object"
    with pytest.raises(BackendError, match="unknown backend 'turbo'"):
        select_backend(None, 64, MESH)


@pytest.mark.parametrize(
    "make", [baseline_config, delegated_replies_config],
    ids=["baseline", "dr"],
)
def test_a_mesh_past_the_crossover_runs_on_vector_and_equals_object(make):
    def run(backend):
        cfg = make(**table1_mix(EDGE + 1, EDGE + 1))
        system = build_system(cfg, "HS", "canneal", backend=backend)
        result = run_simulation(
            cfg, "HS", "canneal", cycles=200, warmup=300, system=system
        )
        return system.backend, result.to_dict()

    chosen, result = run(None)
    assert chosen == "vector"
    assert run("object") == ("object", result)


def test_build_system_selects_from_the_config():
    def chosen(cfg, **kw):
        return build_system(cfg, "HS", "canneal", **kw).backend

    assert chosen(baseline_config()) == "object"
    def big():
        return baseline_config(**table1_mix(EDGE + 1, EDGE + 1))

    assert chosen(baseline_config(**table1_mix(EDGE, EDGE))) == "object"
    assert chosen(big()) == "vector"
    crossbar = big()
    crossbar.noc.topology = Topology.CROSSBAR
    assert chosen(crossbar) == "object"
    traced = big()
    traced.telemetry.enabled = True
    assert chosen(traced) == "object"


def test_a_spec_no_kernel_can_run_is_refused_at_make(monkeypatch):
    cfg = baseline_config(**table1_mix(4, 4))
    cfg.telemetry.enabled = True
    assert JobSpec.make(cfg, "HS", "canneal").backend == "object"
    monkeypatch.setenv(ENV_VAR, "vector")
    with pytest.raises(BackendError, match="telemetry"):
        JobSpec.make(cfg, "HS", "canneal")
    with pytest.raises(BackendError, match="link-down"):
        JobSpec.make(baseline_config(), "HS", "canneal", faults=LINK_DOWN)
    spec = JobSpec.make(baseline_config(), "HS", "canneal", faults=LOSS)
    assert spec.backend == "vector"


def test_job_specs_carry_the_selected_kernel():
    small = JobSpec.make(baseline_config(), "HS", "canneal")
    big = JobSpec.make(
        baseline_config(**table1_mix(EDGE + 1, EDGE + 1)), "HS", "canneal"
    )
    pinned = JobSpec.make(
        baseline_config(**table1_mix(EDGE + 1, EDGE + 1)), "HS", "canneal",
        backend="object",
    )
    assert (small.backend, big.backend, pinned.backend) == (
        "object", "vector", "object"
    )
    assert big.key() != pinned.key()
