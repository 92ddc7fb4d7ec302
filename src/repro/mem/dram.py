"""GDDR5 memory controller with FR-FCFS scheduling (Table I).

Each memory node owns one controller with 16 banks.  The model captures
the timing that matters for bandwidth and latency under the paper's
workloads: row-buffer locality (activate/precharge vs. CAS-only service),
per-bank occupancy, the shared data bus (one burst at a time), and the
FR-FCFS policy of serving ready row-buffer hits before older row misses.
Timing parameters are in controller cycles and default to the paper's
GDDR5 values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.config.system import DramConfig

#: completion callback signature: (block, cycle) -> None
FillCallback = Callable[[int, int], None]


@dataclass
class _DramRequest:
    block: int
    is_write: bool
    arrival: int
    bank: int
    row: int
    on_done: FillCallback


class DramBank:
    """One GDDR5 bank: open row + busy window."""

    __slots__ = ("open_row", "busy_until")

    def __init__(self) -> None:
        self.open_row: Optional[int] = None
        self.busy_until = 0


class MemoryController:
    """FR-FCFS memory controller over a banked GDDR5 device."""

    def __init__(self, cfg: DramConfig, line_bytes: int = 128) -> None:
        self.cfg = cfg
        self.banks = [DramBank() for _ in range(cfg.banks)]
        self.queue: List[_DramRequest] = []
        self.bus_free_at = 0
        self.line_bytes = line_bytes
        self.blocks_per_row = max(1, cfg.row_bytes // line_bytes)
        self.served = 0
        self.row_hits = 0
        self.row_misses = 0
        self._completions: List = []

    def can_accept(self) -> bool:
        return len(self.queue) < self.cfg.queue_depth

    def submit(
        self, block: int, is_write: bool, cycle: int, on_done: FillCallback
    ) -> None:
        """Queue a block-sized access; ``on_done`` fires at completion."""
        if not self.can_accept():
            raise RuntimeError("controller queue full; check can_accept()")
        bank = (block // self.blocks_per_row) % self.cfg.banks
        row = block // (self.blocks_per_row * self.cfg.banks)
        self.queue.append(
            _DramRequest(block, is_write, cycle, bank, row, on_done)
        )

    def _service_latency(self, req: _DramRequest, row_hit: bool) -> int:
        cfg = self.cfg
        latency = cfg.t_cl + cfg.burst_cycles
        if not row_hit:
            latency += cfg.t_rp + cfg.t_rcd
        if req.is_write:
            latency += cfg.t_wr - cfg.t_cl if cfg.t_wr > cfg.t_cl else 0
        return latency

    def step(self, cycle: int) -> None:
        """FR-FCFS: issue at most one burst per cycle onto the data bus."""
        if not self.queue:
            return
        if cycle < self.bus_free_at:
            return
        # first-ready: oldest row-buffer hit on a free bank ...
        pick = None
        for i, req in enumerate(self.queue):
            bank = self.banks[req.bank]
            if bank.busy_until > cycle:
                continue
            if bank.open_row == req.row:
                pick = i
                break
        if pick is None:
            # ... else FCFS: oldest request whose bank is free
            for i, req in enumerate(self.queue):
                if self.banks[req.bank].busy_until <= cycle:
                    pick = i
                    break
        if pick is None:
            return
        req = self.queue.pop(pick)
        bank = self.banks[req.bank]
        row_hit = bank.open_row == req.row
        if row_hit:
            self.row_hits += 1
        else:
            self.row_misses += 1
        latency = self._service_latency(req, row_hit)
        bank.open_row = req.row
        bank.busy_until = cycle + latency
        # the data bus serialises bursts (tCCD apart at minimum)
        self.bus_free_at = cycle + max(self.cfg.t_ccd, self.cfg.burst_cycles)
        self.served += 1
        self._finish(req, cycle + latency)

    def next_event(self) -> int:
        """The first cycle whose ``step`` or ``drain_completions`` can
        change anything: a burst completes, or a queued request finds the
        bus and its bank free (``1 << 62`` when neither can happen)."""
        nxt = 1 << 62
        for done, _req in self._completions:
            if done < nxt:
                nxt = done
        bus = self.bus_free_at
        if self.queue and bus < nxt:
            banks = self.banks
            for req in self.queue:
                free = banks[req.bank].busy_until
                if free <= bus:
                    return bus
                if free < nxt:
                    nxt = free
        return nxt

    def _finish(self, req: _DramRequest, done_cycle: int) -> None:
        self._completions.append((done_cycle, req))

    def drain_completions(self, cycle: int) -> None:
        """Fire callbacks for bursts whose service completed by ``cycle``.

        Drained by the owner every cycle so callbacks run in deterministic
        cycle order.
        """
        if not self._completions:
            return
        remaining = []
        for done_cycle, req in self._completions:
            if done_cycle <= cycle:
                req.on_done(req.block, cycle)
            else:
                remaining.append((done_cycle, req))
        self._completions = remaining
