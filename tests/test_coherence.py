"""Tests for the GPU software-coherence controller."""

from repro.coherence.software import SoftwareCoherenceController


class _FakeCore:
    def __init__(self):
        self.flushed = 0
        self.stall_until = 0

    def flush_l1(self):
        self.flushed += 1
        return 7

    def stall(self, until):
        self.stall_until = max(self.stall_until, until)


class _FakeMem:
    def flush_pointers(self):
        return 3


class TestSoftwareCoherence:
    def test_kernel_boundary_flushes_everything(self):
        cores = [_FakeCore(), _FakeCore()]
        mems = [_FakeMem()]
        ctl = SoftwareCoherenceController(cores, mems, flush_penalty=50)
        ctl.kernel_boundary(cycle=100)
        assert all(c.flushed == 1 for c in cores)
        assert all(c.stall_until == 150 for c in cores)
        assert ctl.stats.lines_invalidated == 14
        assert ctl.stats.pointers_dropped == 3
        assert ctl.stats.flushes == 1

    def test_flush_penalty_never_shortens_existing_stall(self):
        core = _FakeCore()
        core.stall_until = 1_000
        ctl = SoftwareCoherenceController([core], [], flush_penalty=10)
        ctl.kernel_boundary(cycle=0)
        assert core.stall_until == 1_000
