"""Tests for the rolling time-segmented store."""

import pytest

from repro.core.buckets import BucketSpec
from repro.core.profileset import ProfileSet, parse_binary
from repro.service.store import SegmentStore

from ..clock import FakeClock


def pset(op="read", latency=100.0, ops=10):
    return ProfileSet.from_operation_latencies({op: [latency] * ops})


def decoded(profiles):
    """The ``(spec, rows)`` a push of *profiles* hands the store."""
    _crc, spec, _name, _attributes, rows = parse_binary(profiles.to_bytes())
    return spec, rows


class TestConstruction:
    def test_rejects_bad_segment_length(self):
        with pytest.raises(ValueError):
            SegmentStore(0, 4)

    def test_rejects_bad_retention(self):
        with pytest.raises(ValueError):
            SegmentStore(5.0, 0)


class TestIngestAndRotation:
    def test_ingest_merges_into_current_segment(self):
        store = SegmentStore(5.0, 4, clock=FakeClock())
        store.ingest(*decoded(pset(ops=10)))
        store.ingest(*decoded(pset(ops=7)))
        assert store.current.pset["read"].total_ops == 17
        assert store.current.ingests == 2

    def test_rotation_closes_segment_at_boundary(self):
        clock = FakeClock()
        store = SegmentStore(5.0, 4, clock=clock)
        store.ingest(*decoded(pset(ops=3)))
        clock.now += 5.0
        closed = store.ingest(*decoded(pset(ops=4)))
        assert [seg.index for seg in closed] == [0]
        assert closed[0].pset["read"].total_ops == 3
        assert store.current.index == 1

    def test_idle_gap_does_not_materialize_empty_segments(self):
        clock = FakeClock()
        store = SegmentStore(5.0, 10, clock=clock)
        store.ingest(*decoded(pset()))
        clock.now += 50.0  # ten segment lengths later
        closed = store.ingest(*decoded(pset()))
        assert len(closed) == 1
        assert store.current.index == 10
        assert len(store.closed_segments()) == 1

    def test_retention_evicts_oldest(self):
        clock = FakeClock()
        store = SegmentStore(1.0, 2, clock=clock)
        for i in range(5):
            store.ingest(*decoded(pset(ops=i + 1)))
            clock.now += 1.0
        store.advance()
        kept = store.closed_segments()
        assert len(kept) == 2
        assert [seg.index for seg in kept] == [3, 4]
        assert store.segments_evicted == 3
        assert store.segments_closed == 5

    def test_advance_without_ingest_rotates(self):
        clock = FakeClock()
        store = SegmentStore(2.0, 4, clock=clock)
        store.ingest(*decoded(pset()))
        clock.now += 2.0
        closed = store.advance()
        assert len(closed) == 1
        assert closed[0].ingests == 1

    def test_resolution_mismatch_rejected(self):
        store = SegmentStore(5.0, 4, clock=FakeClock())
        alien = ProfileSet(spec=BucketSpec(2))
        alien.add("read", 100.0)
        with pytest.raises(ValueError, match="resolution"):
            store.ingest(*decoded(alien))


class TestMerged:
    def test_merged_spans_closed_and_current(self):
        clock = FakeClock()
        store = SegmentStore(5.0, 4, clock=clock)
        store.ingest(*decoded(pset(ops=10)))
        clock.now += 5.0
        store.ingest(*decoded(pset(ops=5)))
        merged = store.merged()
        assert merged["read"].total_ops == 15

    def test_merged_is_byte_identical_to_serial_merge(self):
        clock = FakeClock()
        store = SegmentStore(5.0, 8, clock=clock)
        pushes = [pset("read", 100.0 * (i + 1), ops=5 + i)
                  for i in range(6)]
        pushes += [pset("llseek", 50.0, ops=9)]
        for i, p in enumerate(pushes):
            store.ingest(*decoded(p))
            if i % 2:
                clock.now += 5.0
        serial = ProfileSet.merged(pushes)
        assert store.merged().to_bytes() == serial.to_bytes()

    def test_merged_empty_store(self):
        store = SegmentStore(5.0, 4, clock=FakeClock())
        merged = store.merged()
        assert len(merged) == 0
        assert merged.to_bytes() == ProfileSet().to_bytes()

    def test_counters_and_len(self):
        clock = FakeClock()
        store = SegmentStore(5.0, 4, clock=clock)
        assert len(store) == 1
        store.ingest(*decoded(pset(ops=4)))
        clock.now += 5.0
        store.advance()
        assert len(store) == 2
        assert store.total_ops() == 4


class TestEvictionHook:
    def test_on_evict_sees_every_dropped_segment(self):
        clock = FakeClock()
        evicted = []
        store = SegmentStore(5.0, 2, clock=clock,
                             on_evict=evicted.append)
        for i in range(6):
            store.ingest(*decoded(pset(latency=100.0 + i)))
            clock.now += 5.0
        store.advance()
        # 6 segments closed, retention 2: the oldest 4 were dropped,
        # oldest first, and every one passed through the hook.
        assert [seg.index for seg in evicted] == [0, 1, 2, 3]
        assert evicted[0].pset["read"].mean_latency() == 100.0
        assert store.segments_evicted == 4

    def test_no_hook_keeps_old_behavior(self):
        clock = FakeClock()
        store = SegmentStore(5.0, 1, clock=clock)
        for _ in range(3):
            store.ingest(*decoded(pset()))
            clock.now += 5.0
        store.advance()
        assert store.segments_evicted == 2

    def test_raising_hook_propagates(self):
        # Silent data loss is worse than a failed rotation: the store
        # must not swallow an on_evict failure.
        clock = FakeClock()

        def explode(segment):
            raise RuntimeError("durability layer down")

        store = SegmentStore(5.0, 1, clock=clock, on_evict=explode)
        for _ in range(2):
            store.ingest(*decoded(pset()))
            clock.now += 5.0
        with pytest.raises(RuntimeError, match="durability layer down"):
            store.advance()
