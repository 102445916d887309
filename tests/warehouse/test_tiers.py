"""Tests for tier geometry, compaction planning, and gc planning."""

import pytest

from repro.warehouse.index import SegmentMeta, WarehouseIndex
from repro.warehouse.tiers import (CompactionPolicy, plan_compactions,
                                   plan_gc)


def meta(seg_id, tier=0, epoch=None, span=1, source="web"):
    epoch = seg_id if epoch is None else epoch
    return SegmentMeta(seg_id=seg_id, source=source, tier=tier,
                       epoch=epoch, span=span,
                       file=f"f{seg_id}", nbytes=1,
                       ops=(("filesystem", "read"),))


def index_of(*metas):
    index = WarehouseIndex()
    for m in metas:
        index.apply(m.to_record())
    return index


class TestPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            CompactionPolicy(fanout=1)
        with pytest.raises(ValueError):
            CompactionPolicy(keep=())
        with pytest.raises(ValueError):
            CompactionPolicy(keep=(4, 0))
        # Tier geometry is whole counts: a float fanout would reach
        # segment file names, and a bool is not a count.
        for fanout in (2.0, 2.5, float("inf"), True):
            with pytest.raises(ValueError, match="fanout"):
                CompactionPolicy(fanout=fanout)
        for keep in ((2.5,), (float("nan"),), (True, 2), (8, 8.0)):
            with pytest.raises(ValueError, match="keep"):
                CompactionPolicy(keep=keep)

    def test_keep_is_stored_as_a_tuple(self):
        policy = CompactionPolicy(fanout=2, keep=[8, 8])
        assert policy.keep == (8, 8)
        assert hash(policy) == hash(CompactionPolicy(fanout=2,
                                                     keep=(8, 8)))

    def test_span_and_windows(self):
        policy = CompactionPolicy(fanout=4, keep=(8, 8, 8))
        assert [policy.span(t) for t in range(3)] == [1, 4, 16]
        assert policy.window_start(1, 7) == 4
        assert policy.window_start(2, 17) == 16
        with pytest.raises(ValueError):
            policy.span(3)

    def test_aged_horizon_arithmetic(self):
        policy = CompactionPolicy(fanout=2, keep=(3, 2))
        # Tier 0 keeps base epochs [horizon-2, horizon] hot.
        assert not policy.aged(0, epoch_end=8, horizon=10)
        assert policy.aged(0, epoch_end=7, horizon=10)
        # Tier 1 windows are 2 wide; 2 kept => 4 base epochs hot.
        assert not policy.aged(1, epoch_end=7, horizon=10)
        assert policy.aged(1, epoch_end=6, horizon=10)


class TestPlanCompactions:
    POLICY = CompactionPolicy(fanout=2, keep=(2, 2, 2))

    def test_empty_source_plans_nothing(self):
        assert plan_compactions(WarehouseIndex(), "web", self.POLICY) == []

    def test_hot_segments_stay_put(self):
        index = index_of(*(meta(i) for i in range(1, 3)))
        assert plan_compactions(index, "web", self.POLICY) == []

    def test_aged_segments_group_by_aligned_window(self):
        # Epochs 1..8 (ids 1..8): horizon 8, tier-0 keeps {7, 8} hot.
        index = index_of(*(meta(i) for i in range(1, 9)))
        groups = plan_compactions(index, "web", self.POLICY)
        windows = [(g.tier, g.epoch, [m.seg_id for m in g.inputs])
                   for g in groups]
        # Aged: 1..6. Windows of span 2: [0,1]->1, [2,3]->2,3, [4,5]->4,5
        # and 6 straggles alone in [6,7] (7 is hot at tier 0).
        assert windows == [(1, 0, [1]), (1, 2, [2, 3]), (1, 4, [4, 5]),
                           (1, 6, [6])]

    def test_planning_is_deterministic(self):
        index = index_of(*(meta(i) for i in range(1, 9)))
        assert plan_compactions(index, "web", self.POLICY) == \
            plan_compactions(index, "web", self.POLICY)

    def test_top_tier_never_compacts(self):
        policy = CompactionPolicy(fanout=2, keep=(1,))
        index = index_of(*(meta(i) for i in range(1, 6)))
        assert plan_compactions(index, "web", policy) == []

    def test_mid_tier_promotes_upward(self):
        # A tier-1 segment far behind the horizon promotes to tier 2.
        index = index_of(meta(1, tier=1, epoch=0, span=2),
                         meta(2, epoch=20))
        groups = plan_compactions(index, "web", self.POLICY)
        assert [(g.tier, g.epoch) for g in groups] == [(2, 0)]

    def test_horizon_is_per_source(self):
        # Another source's recent data must not age this source's.
        index = index_of(meta(1, epoch=0), meta(2, epoch=50, source="hot"))
        assert plan_compactions(index, "web", self.POLICY) == []


class TestPlanGc:
    def test_only_top_tier_past_retention(self):
        policy = CompactionPolicy(fanout=2, keep=(2, 2))
        index = index_of(
            meta(1, tier=1, epoch=0, span=2),    # ends at 1: aged
            meta(2, tier=1, epoch=4, span=2),    # ends at 5: hot
            meta(3, epoch=0),                    # tier 0 is never gc'd
            meta(4, epoch=8))
        victims = plan_gc(index, "web", policy)
        assert [m.seg_id for m in victims] == [1]

    def test_empty_source(self):
        assert plan_gc(WarehouseIndex(), "web", CompactionPolicy()) == []
