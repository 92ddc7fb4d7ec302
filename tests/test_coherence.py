"""Tests for the MESI directory and the GPU software-coherence controller."""

import pytest

from repro.coherence.mesi import MesiDirectory, MesiState
from repro.coherence.software import SoftwareCoherenceController


class TestMesiReads:
    def test_first_reader_gets_exclusive(self):
        d = MesiDirectory()
        action = d.get_shared(1, 0x10)
        assert action.grant is MesiState.EXCLUSIVE
        assert action.fetch_from is None
        assert d.owner_of(0x10) == 1

    def test_second_reader_downgrades_owner(self):
        d = MesiDirectory()
        d.get_shared(1, 0x10)
        action = d.get_shared(2, 0x10)
        assert action.grant is MesiState.SHARED
        assert action.fetch_from == 1
        assert d.owner_of(0x10) is None
        assert d.sharers_of(0x10) == {1, 2}

    def test_third_reader_joins_sharers_quietly(self):
        d = MesiDirectory()
        d.get_shared(1, 0x10)
        d.get_shared(2, 0x10)
        action = d.get_shared(3, 0x10)
        assert action.fetch_from is None
        assert d.sharers_of(0x10) == {1, 2, 3}


class TestMesiWrites:
    def test_getm_invalidates_all_sharers(self):
        d = MesiDirectory()
        d.get_shared(1, 0x10)
        d.get_shared(2, 0x10)
        d.get_shared(3, 0x10)
        action = d.get_modified(4, 0x10)
        assert set(action.invalidate) == {1, 2, 3}
        assert action.grant is MesiState.MODIFIED
        assert d.owner_of(0x10) == 4
        assert d.sharers_of(0x10) == set()

    def test_getm_fetches_from_owner(self):
        d = MesiDirectory()
        d.get_shared(1, 0x10)     # 1 holds E
        action = d.get_modified(2, 0x10)
        assert action.fetch_from == 1
        assert d.owner_of(0x10) == 2

    def test_upgrade_from_own_shared_copy(self):
        d = MesiDirectory()
        d.get_shared(1, 0x10)
        d.get_shared(2, 0x10)
        action = d.get_modified(1, 0x10)
        assert set(action.invalidate) == {2}
        assert action.fetch_from is None

    def test_putm_requires_ownership(self):
        d = MesiDirectory()
        d.get_modified(1, 0x10)
        d.put_modified(1, 0x10)
        assert d.state_of(0x10) is MesiState.INVALID
        with pytest.raises(ValueError):
            d.put_modified(2, 0x10)


class TestMesiEviction:
    def test_silent_shared_eviction(self):
        d = MesiDirectory()
        d.get_shared(1, 0x10)
        d.get_shared(2, 0x10)
        d.evict_shared(1, 0x10)
        assert d.sharers_of(0x10) == {2}

    def test_last_eviction_frees_directory_entry(self):
        d = MesiDirectory()
        d.get_shared(1, 0x10)
        d.get_shared(2, 0x10)
        d.evict_shared(1, 0x10)
        d.evict_shared(2, 0x10)
        assert d.tracked_blocks() == 0

    def test_eviction_of_untracked_block_is_noop(self):
        d = MesiDirectory()
        d.evict_shared(1, 0x99)
        assert d.tracked_blocks() == 0


class TestMesiStats:
    def test_counters(self):
        d = MesiDirectory()
        d.get_shared(1, 0x10)
        d.get_shared(2, 0x10)
        d.get_modified(3, 0x10)
        assert d.stats.gets == 2
        assert d.stats.getm == 1
        assert d.stats.invalidations_sent == 2
        assert d.stats.owner_fetches == 1


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
