"""Tests for time-segmented (3-D) profile sampling."""

import pytest

from repro.core.sampling import SampledProfiler, SampledProfileSeries

from ..clock import FakeClock


@pytest.fixture
def clock():
    return FakeClock()


class TestSampledProfiler:
    def test_requests_land_in_their_start_segment(self, clock):
        sp = SampledProfiler(clock, interval=1000)
        sp.record("read", start=0, latency=10)
        sp.record("read", start=999, latency=10)
        sp.record("read", start=1000, latency=10)
        sp.record("read", start=2500, latency=10)
        series = sp.series()
        assert len(series) == 3
        assert series[0]["read"].total_ops == 2
        assert series[1]["read"].total_ops == 1
        assert series[2]["read"].total_ops == 1

    def test_record_now_attributes_by_start_time(self, clock):
        sp = SampledProfiler(clock, interval=1000)
        clock.now = 1500
        # Started at 900 (segment 0), completed at 1500 (segment 1).
        sp.record_now("op", latency=600)
        series = sp.series()
        assert series[0]["op"].total_ops == 1

    def test_invalid_interval_rejected(self, clock):
        with pytest.raises(ValueError):
            SampledProfiler(clock, interval=0)

    def test_segments_created_lazily(self, clock):
        sp = SampledProfiler(clock, interval=100)
        sp.record("op", start=950, latency=1)
        assert len(sp.series()) == 10

    def test_negative_latency_clamped(self, clock):
        sp = SampledProfiler(clock, interval=100)
        sp.record("op", start=0, latency=-5)
        assert sp.series()[0]["op"].count(0) == 1


class TestSampledSeries:
    def make_series(self, clock):
        sp = SampledProfiler(clock, interval=1000)
        sp.record("read", start=0, latency=100)
        sp.record("read", start=0, latency=5000)
        sp.record("write_super", start=1000, latency=1 << 20)
        sp.record("read", start=2000, latency=100)
        return sp.series()

    def test_operations_union(self, clock):
        series = self.make_series(clock)
        assert series.operations() == ["read", "write_super"]

    def test_cells_matrix(self, clock):
        series = self.make_series(clock)
        cells = series.cells("read")
        assert cells[(0, 6)] == 1
        assert cells[(0, 12)] == 1
        assert cells[(2, 6)] == 1
        assert (1, 6) not in cells

    def test_collapse_equals_total(self, clock):
        series = self.make_series(clock)
        total = series.collapse()
        assert total["read"].total_ops == 3
        assert total["write_super"].total_ops == 1

    def test_periodicity_counts_in_range(self, clock):
        series = self.make_series(clock)
        row = series.periodicity("write_super", 15, 25)
        assert row == [0, 1, 0]

    def test_periodicity_missing_op_is_zeroes(self, clock):
        series = self.make_series(clock)
        assert series.periodicity("nope", 0, 60) == [0, 0, 0]


class TestEdgeCases:
    """Zero segments, partial final interval, non-monotonic clocks.

    These used to be silent: an empty series collapsed to a profile
    with an invented bucket spec, a pre-epoch timestamp landed in
    segment 0 (shifting the Figure 9 time axis), and a mid-interval
    read was indistinguishable from a genuinely quiet tail.
    """

    def test_collapse_of_empty_series_raises(self, clock):
        sp = SampledProfiler(clock, interval=1000)
        with pytest.raises(ValueError, match="empty sampled series"):
            sp.series().collapse()
        with pytest.raises(ValueError, match="empty sampled series"):
            SampledProfileSeries(1000.0, []).collapse()

    def test_empty_series_is_still_inspectable(self, clock):
        # Only collapse() needs a bucket spec; the read-only views of
        # an empty series answer harmlessly.
        series = SampledProfiler(clock, interval=1000).series()
        assert len(series) == 0
        assert series.operations() == []
        assert series.cells("read") == {}
        assert series.periodicity("read", 0, 60) == []

    def test_pre_epoch_timestamp_raises(self, clock):
        clock.now = 5000.0
        sp = SampledProfiler(clock, interval=1000)
        with pytest.raises(ValueError, match="non-monotonic"):
            sp.record("read", start=4999.0, latency=10)
        # The boundary itself is fine.
        sp.record("read", start=5000.0, latency=10)
        assert sp.series()[0]["read"].total_ops == 1

    def test_record_now_with_rolled_back_clock_raises(self, clock):
        clock.now = 2000.0
        sp = SampledProfiler(clock, interval=1000)
        clock.now = 2500.0
        # Completion at 2500 with a claimed 1000-cycle latency puts the
        # start before the epoch: reject, don't mis-bin.
        with pytest.raises(ValueError, match="precedes the sampling"):
            sp.record_now("read", latency=1000.0)

    def test_tail_fraction_of_partial_final_interval(self, clock):
        sp = SampledProfiler(clock, interval=1000)
        sp.record("read", start=0, latency=10)
        sp.record("read", start=2000, latency=10)
        clock.now = 2250.0
        series = sp.series()
        assert len(series) == 3
        assert series.tail_fraction == pytest.approx(0.25)

    def test_tail_fraction_complete_interval_is_one(self, clock):
        sp = SampledProfiler(clock, interval=1000)
        sp.record("read", start=0, latency=10)
        clock.now = 1000.0
        assert sp.series().tail_fraction == pytest.approx(1.0)

    def test_tail_fraction_clamped_to_unit_range(self, clock):
        sp = SampledProfiler(clock, interval=1000)
        sp.record("read", start=0, latency=10)
        # Clock far beyond the last materialized segment: reads clamp
        # at 1.0 rather than reporting a >100% interval.
        clock.now = 9999.0
        assert sp.series().tail_fraction == 1.0

    def test_empty_series_tail_fraction_defaults_to_one(self, clock):
        assert SampledProfiler(clock, interval=10).series() \
            .tail_fraction == 1.0

    def test_series_rejects_out_of_range_tail_fraction(self):
        with pytest.raises(ValueError):
            SampledProfileSeries(100.0, [], tail_fraction=1.5)
        with pytest.raises(ValueError):
            SampledProfileSeries(100.0, [], tail_fraction=-0.1)
