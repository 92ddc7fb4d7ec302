"""The traffic library (``repro.bench``): pure generators, one replay driver.

Every differential check replays these schedules, so what they promise is
tested once here: a schedule is a function of its arguments alone, its
packets are legal, and ``replay`` loses none of them.
"""

from __future__ import annotations

import subprocess
import sys

from repro.bench import (
    SCENARIOS,
    delivered,
    hotspot_schedule,
    replay,
    run_bench,
    uniform_schedule,
)
from repro.noc import MessageType

MEM_NODES = (3, 7, 11, 15)


def test_schedules_are_pure_and_seed_stable():
    assert uniform_schedule(16, 200, 80, seed=5) == uniform_schedule(16, 200, 80, seed=5)
    assert uniform_schedule(16, 200, 80, seed=5) != uniform_schedule(16, 200, 80, seed=6)
    assert hotspot_schedule(16, MEM_NODES, 200, 150, seed=5) == hotspot_schedule(
        16, MEM_NODES, 200, 150, seed=5
    )
    # a longer window extends a schedule, it does not redraw it
    assert uniform_schedule(16, 300, 80, seed=5)[:200] == uniform_schedule(16, 200, 80, seed=5)


def test_uniform_schedule_never_sends_to_self():
    sched = uniform_schedule(9, 400, 300, seed=2)
    specs = [spec for cyc in sched for spec in cyc]
    assert len(specs) > 1000
    assert all(src != dst for src, dst, *_ in specs)
    assert {size for *_, size, _delegate_to in specs} == {1, 9}


def test_hotspot_schedule_targets_memory_nodes():
    sched = hotspot_schedule(16, MEM_NODES, 400, 200, seed=9)
    requests = replies = delegatable = 0
    for src, dst, mtype, _cls, _size, delegate_to in (
        s for cyc in sched for s in cyc
    ):
        if mtype is MessageType.READ_REQ:
            requests += 1
            assert dst in MEM_NODES and src not in MEM_NODES
            assert delegate_to is None
        else:
            replies += 1
            assert src in MEM_NODES and dst not in MEM_NODES
            # a reply is never delegated to the core that asked for it
            assert delegate_to != dst and delegate_to not in MEM_NODES
            delegatable += delegate_to is not None
    assert requests > 100 and replies > 100
    assert delegatable > replies // 2


def test_replay_delivers_every_accepted_packet():
    scenario = SCENARIOS["mesh8x8"]
    fabric = scenario.build("object")
    sched = uniform_schedule(64, 400, 250, seed=1)  # past saturation
    accepted = replay(fabric, sched)
    offered = sum(len(cyc) for cyc in sched)
    assert 0 < accepted < offered  # full injection queues refused some
    # no more offers: stepping alone must empty the mesh
    accepted += replay(fabric, [[]] * 3000, start=len(sched))
    assert fabric.in_flight_flits() == 0
    assert delivered(fabric)[0] == accepted


def test_run_bench_backends_agree():
    obj = run_bench("mesh8x8", 300, backend="object")
    vec = run_bench("mesh8x8", 300, backend="vector")
    assert obj.packets_delivered == vec.packets_delivered > 0
    assert obj.flits_delivered == vec.flits_delivered > 0
    assert obj.cycles_per_sec > 0 and vec.cycles_per_sec > 0


def test_bench_cli_is_gone():
    """``python -m repro.bench`` was retired for ``e2e_bench/run.py``: the
    interpreter's own one-line refusal, nothing of ours."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro.bench"], capture_output=True, text=True
    )
    assert proc.returncode != 0
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip().splitlines()[-1].startswith(f"{sys.executable}: No module named")
