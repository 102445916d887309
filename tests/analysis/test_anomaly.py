"""Tests for change-point detection over sampled profiles."""

import pytest

from repro.analysis.anomaly import (change_points, distance_series)
from repro.core.sampling import SampledProfiler
from repro.sim.rng import SimRandom

from ..clock import FakeClock


def make_series(segments, ops_per_segment=5000, shift_at=None,
                seed=7):
    """Segments of a stable bimodal distribution, optionally shifting
    one mode rightward from segment *shift_at* on."""
    clock = FakeClock()
    sp = SampledProfiler(clock, interval=1000)
    rng = SimRandom(seed)
    for segment in range(segments):
        start = segment * 1000
        for _ in range(ops_per_segment):
            if rng.chance(0.7):
                latency = rng.jitter(200, sigma=0.3)
            else:
                slow = 3e6
                if shift_at is not None and segment >= shift_at:
                    slow = 6e7  # the disk got slower
                latency = rng.jitter(slow, sigma=0.3)
            sp.record("read", start=start, latency=latency)
    return sp.series()


class TestDistanceSeries:
    def test_first_entry_none(self):
        series = make_series(4)
        distances = distance_series(series, "read")
        assert distances[0] is None
        assert len(distances) == 4

    def test_stable_series_low_distances(self):
        # EMD sampling noise between far-apart modes is ~14 buckets x
        # binomial mass noise; at 5000 samples that stays well below
        # the ~1.3 a real mode shift produces.
        series = make_series(6)
        distances = distance_series(series, "read")
        assert all(d < 0.35 for d in distances[1:])

    def test_shift_produces_spike(self):
        series = make_series(6, shift_at=3)
        distances = distance_series(series, "read")
        spike = distances[3]
        others = [d for i, d in enumerate(distances[1:], start=1)
                  if i != 3]
        assert spike > 3 * max(others)
        assert spike > 1.0  # ~4.3 buckets x 0.3 mass

    def test_sparse_segments_skipped(self):
        series = make_series(4, ops_per_segment=3)
        distances = distance_series(series, "read", min_ops=10)
        assert all(d is None for d in distances)

    def test_missing_operation(self):
        series = make_series(3)
        assert distance_series(series, "nope") == [None, None, None]


class TestChangePoints:
    def test_detects_the_shift_segment(self):
        series = make_series(8, shift_at=5)
        points = change_points(series, "read")
        assert [p.segment for p in points] == [5]
        assert "segment 5" in points[0].describe()

    def test_stable_series_no_points(self):
        series = make_series(8)
        assert change_points(series, "read") == []

    def test_explicit_threshold(self):
        series = make_series(8, shift_at=5)
        none = change_points(series, "read", threshold=1e9)
        assert none == []
        all_segments = change_points(series, "read", threshold=0.0)
        assert len(all_segments) == 7  # every comparable segment

    def test_empty_series(self):
        clock = FakeClock()
        sp = SampledProfiler(clock, interval=1000)
        sp.record("read", 0, 100)
        assert change_points(sp.series(), "other") == []

    def test_sensitivity(self):
        series = make_series(8, shift_at=5)
        loose = change_points(series, "read", sensitivity=2.0)
        tight = change_points(series, "read", sensitivity=50.0)
        assert len(loose) >= len(tight)
