"""Tests for the set-associative cache and MSHR file."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.cache import MshrFile, SetAssociativeCache


class TestCacheBasics:
    def test_miss_then_hit(self):
        c = SetAssociativeCache(4, 2)
        assert not c.lookup(0x10)
        c.insert(0x10)
        assert c.lookup(0x10)

    def test_contains_does_not_touch_lru(self):
        c = SetAssociativeCache(1, 2)
        c.insert(1)
        c.insert(2)
        assert c.contains(1)     # 1 stays LRU
        assert not c.contains(3)
        assert c.insert(3) == 1

    def test_lru_eviction_order(self):
        c = SetAssociativeCache(1, 2)
        c.insert(1)
        c.insert(2)
        assert c.lookup(1)       # 1 is now MRU
        victim = c.insert(3)
        assert victim == 2       # 2 was LRU

    def test_insert_existing_refreshes_lru(self):
        c = SetAssociativeCache(1, 2)
        c.insert(1)
        c.insert(2)
        assert c.insert(1) is None  # refresh, no eviction
        victim = c.insert(3)
        assert victim == 2

    def test_set_mapping_isolates_sets(self):
        c = SetAssociativeCache(2, 1)
        c.insert(0)  # set 0
        c.insert(1)  # set 1
        assert c.contains(0) and c.contains(1)

    def test_invalidate(self):
        c = SetAssociativeCache(4, 2)
        c.insert(5)
        assert c.invalidate(5)
        assert not c.contains(5)
        assert not c.invalidate(5)

    def test_flush_reports_dropped_lines(self):
        c = SetAssociativeCache(4, 2)
        for b in range(6):
            c.insert(b)
        assert c.flush() == 6
        assert c.occupancy() == 0

    def test_metadata_roundtrip(self):
        c = SetAssociativeCache(4, 2)
        c.insert(9, meta=17)
        assert c.meta(9) == 17
        c.set_meta(9, 23)
        assert c.meta(9) == 23

    def test_meta_of_absent_block_is_none(self):
        c = SetAssociativeCache(4, 2)
        assert c.meta(1234) is None

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(0, 2)
        with pytest.raises(ValueError):
            SetAssociativeCache(2, 0)


class TestCacheProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 255), min_size=1, max_size=200))
    def test_occupancy_never_exceeds_capacity(self, blocks):
        c = SetAssociativeCache(4, 2)
        for b in blocks:
            if not c.lookup(b):
                c.insert(b)
        assert c.occupancy() <= 8
        per_set = {}
        for b in c.blocks():
            per_set.setdefault(b % 4, []).append(b)
        for s, items in per_set.items():
            assert len(items) <= 2
            assert len(set(items)) == len(items), "duplicate tags in a set"

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 63), min_size=1, max_size=100))
    def test_inserted_block_is_always_resident(self, blocks):
        c = SetAssociativeCache(8, 4)
        for b in blocks:
            c.insert(b)
            assert c.contains(b)


class TestMshrFile:
    def test_allocate_and_release(self):
        m = MshrFile(4)
        m.allocate(0x10, "w0")
        assert m.has(0x10)
        assert m.release(0x10) == ["w0"]
        assert not m.has(0x10)

    def test_secondary_miss_merging(self):
        m = MshrFile(4)
        m.allocate(0x10, "w0")
        m.add_waiter(0x10, "w1")
        m.add_waiter(0x10, "w2")
        assert m.release(0x10) == ["w0", "w1", "w2"]
        assert len(m) == 0

    def test_double_allocate_rejected(self):
        m = MshrFile(4)
        m.allocate(1, "a")
        with pytest.raises(ValueError):
            m.allocate(1, "b")

    def test_capacity_enforced(self):
        m = MshrFile(2)
        m.allocate(1, "a")
        m.allocate(2, "b")
        assert m.full
        with pytest.raises(RuntimeError):
            m.allocate(3, "c")

    def test_peak_tracking(self):
        m = MshrFile(4)
        m.allocate(1, "a")
        m.allocate(2, "b")
        m.release(1)
        assert m.peak == 2

    def test_zero_entries_rejected(self):
        with pytest.raises(ValueError):
            MshrFile(0)

    def test_waiters_view_is_a_copy(self):
        m = MshrFile(2)
        m.allocate(1, "a")
        view = m.waiters(1)
        view.append("bogus")
        assert m.waiters(1) == ["a"]
