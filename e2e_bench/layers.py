"""The traced run: per-layer spans timed from outside the program.

A traced rep replaces ``HeterogeneousSystem.run`` with a loop of the
benchmark's own that makes the same calls in the same order as
``HeterogeneousSystem.step`` — memory nodes, GPU cores, CPU cores,
fabric, telemetry — with ``perf_counter_ns`` around each group.  Each
NIC's public ``handler`` attribute is wrapped, so the time an endpoint
spends receiving a packet *inside* the fabric span is charged to the
endpoint (``*.recv``) and subtracted from the fabric (``fabric.self``).
Nothing inside ``src/`` is touched; the digest check in ``loads.py``
fails the run if this loop ever drifts from the real ``step``.

Spans are kept in memory as one record per span per 100-cycle window
and written out when the benchmark ends.
"""

from __future__ import annotations

from time import perf_counter_ns
from typing import Dict, List

#: span -> parent.  ``*.recv`` spans run inside ``fabric.step``.
SPAN_PARENT = {
    "memnode.step": "system.step",
    "gpu.step": "system.step",
    "cpu.step": "system.step",
    "fabric.inject": "system.step",
    "fabric.step": "system.step",
    "telemetry.on_cycle": "system.step",
    "gpu.recv": "fabric.step",
    "cpu.recv": "fabric.step",
    "memnode.recv": "fabric.step",
}
_SPANS = tuple(SPAN_PARENT)
_IDX = {name: i for i, name in enumerate(_SPANS)}


class TraceRecorder:
    """Span accumulators for one traced rep."""

    def __init__(self) -> None:
        self.busy_ns = [0] * len(_SPANS)
        self.calls = [0] * len(_SPANS)
        #: closed windows: sim index, start cycle, cycles, wall ns,
        #: per-span busy ns and calls, fabric occupancy at the window end
        self.windows: List[Dict] = []
        self.sim = 0

    # -- wiring -----------------------------------------------------------

    def wrap_handlers(self, system) -> None:
        """Charge packet-receive time to the receiving layer."""
        for layer, endpoints in (
            ("gpu.recv", system.gpu_cores),
            ("cpu.recv", system.cpu_cores),
            ("memnode.recv", system.memory_nodes),
        ):
            for endpoint in endpoints:
                nic = endpoint.nic
                nic.handler = self._timed_handler(nic.handler, _IDX[layer])

    def _timed_handler(self, fn, idx: int):
        busy, calls, now = self.busy_ns, self.calls, perf_counter_ns

        def handler(pkt, cycle):
            t0 = now()
            fn(pkt, cycle)
            busy[idx] += now() - t0
            calls[idx] += 1

        return handler

    # -- traced loops -------------------------------------------------------

    def run_system(self, system, cycles: int) -> None:
        """``system.run(cycles)`` with a timer around each layer's calls.

        Mirrors ``HeterogeneousSystem.step`` for a system without a
        fault plan or kernel flushes (the benchmark builds none).
        """
        busy, calls, now = self.busy_ns, self.calls, perf_counter_ns
        mems, gpus, cpus = system.memory_nodes, system.gpu_cores, system.cpu_cores
        fabric_step = system.fabric.step
        tel = system.telemetry
        i_mem, i_gpu, i_cpu = _IDX["memnode.step"], _IDX["gpu.step"], _IDX["cpu.step"]
        i_fab, i_tel = _IDX["fabric.step"], _IDX["telemetry.on_cycle"]
        start = system.cycle
        t_open = now()
        for cycle in range(start, start + cycles):
            t0 = now()
            for mem in mems:
                mem.step(cycle)
            t1 = now()
            for core in gpus:
                core.step(cycle)
            t2 = now()
            for core in cpus:
                core.step(cycle)
            t3 = now()
            fabric_step(cycle)
            t4 = now()
            busy[i_mem] += t1 - t0
            busy[i_gpu] += t2 - t1
            busy[i_cpu] += t3 - t2
            busy[i_fab] += t4 - t3
            if tel is not None:
                tel.on_cycle(cycle)
                busy[i_tel] += now() - t4
            system.cycle = cycle + 1
        wall = now() - t_open
        calls[i_mem] += cycles * len(mems)
        calls[i_gpu] += cycles * len(gpus)
        calls[i_cpu] += cycles * len(cpus)
        calls[i_fab] += cycles
        if tel is not None:
            calls[i_tel] += cycles
        self._close_window(start, cycles, wall, system.fabric.in_flight_flits())

    def run_fabric(self, fabric, schedule, start: int, cycles: int, offered: List[int]) -> None:
        """The bare-fabric loop of ``fabric_sat`` with timers."""
        busy, calls, now = self.busy_ns, self.calls, perf_counter_ns
        nics = fabric.nics
        step = fabric.step
        i_inj, i_fab = _IDX["fabric.inject"], _IDX["fabric.step"]
        sent = 0
        t_open = now()
        for cycle in range(start, start + cycles):
            t0 = now()
            for pkt in schedule[cycle]:
                if nics[pkt.src].try_send(pkt, cycle):
                    sent += 1
            t1 = now()
            step(cycle)
            t2 = now()
            busy[i_inj] += t1 - t0
            busy[i_fab] += t2 - t1
            calls[i_inj] += len(schedule[cycle])
        wall = now() - t_open
        calls[i_fab] += cycles
        offered[0] += sent
        self._close_window(start, cycles, wall, fabric.in_flight_flits())

    def _close_window(self, start: int, cycles: int, wall_ns: int, in_flight: int) -> None:
        self.windows.append(
            {
                "sim": self.sim,
                "start_cycle": start,
                "cycles": cycles,
                "wall_ns": wall_ns,
                "busy_ns": list(self.busy_ns),
                "calls": list(self.calls),
                "in_flight_flits": in_flight,
            }
        )
        for i in range(len(_SPANS)):
            self.busy_ns[i] = 0
            self.calls[i] = 0

    # -- results ------------------------------------------------------------

    def layer_seconds(self, factors: List[float]) -> Dict[str, float]:
        """Normalised seconds per span over the whole rep, plus ``total``
        (the traced loops' wall) — ``factors[i]`` scales window ``i``."""
        out = {name: 0.0 for name in _SPANS}
        total = 0.0
        for window, f in zip(self.windows, factors):
            total += window["wall_ns"] * f
            for name, ns in zip(_SPANS, window["busy_ns"]):
                out[name] += ns * f
        out = {name: ns / 1e9 for name, ns in out.items()}
        out["total"] = total / 1e9
        return out

    def mean_in_flight(self) -> float:
        samples = [w["in_flight_flits"] for w in self.windows]
        return sum(samples) / len(samples)

    def records(self, factors: List[float]) -> List[Dict]:
        """One record per span per window, for the trace file."""
        rows = []
        for window, f in zip(self.windows, factors):
            for name, ns, n in zip(_SPANS, window["busy_ns"], window["calls"]):
                if n:
                    rows.append(
                        {
                            "name": name,
                            "parent": SPAN_PARENT[name],
                            "sim": window["sim"],
                            "start_cycle": window["start_cycle"],
                            "cycles": window["cycles"],
                            "busy_ns": ns,
                            "calls": n,
                            "norm_factor": f,
                        }
                    )
            rows.append(
                {
                    "name": "system.step",
                    "parent": None,
                    "sim": window["sim"],
                    "start_cycle": window["start_cycle"],
                    "cycles": window["cycles"],
                    "busy_ns": window["wall_ns"],
                    "calls": window["cycles"],
                    "norm_factor": f,
                    "in_flight_flits": window["in_flight_flits"],
                }
            )
        return rows


def layer_shares(sec: Dict[str, float]) -> Dict[str, float]:
    """Each layer's share of the traced loops' time; they and
    ``unattributed`` (loop and timer overhead) sum to one."""
    total = sec["total"]
    recv = sec["gpu.recv"] + sec["cpu.recv"] + sec["memnode.recv"]
    shares = {
        "fabric": (sec["fabric.step"] + sec["fabric.inject"] - recv) / total,
        "gpu": (sec["gpu.step"] + sec["gpu.recv"]) / total,
        "cpu": (sec["cpu.step"] + sec["cpu.recv"]) / total,
        "memnode": (sec["memnode.step"] + sec["memnode.recv"]) / total,
        "telemetry": sec["telemetry.on_cycle"] / total,
    }
    shares["unattributed"] = 1.0 - sum(shares.values())
    return shares
