"""Tests for the Profiler interception layer."""

import pytest

from repro.core.profiler import Profiler, tsc_clock

from ..clock import FakeClock


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def profiler(clock):
    return Profiler(name="test", clock=clock)


class TestBeginEnd:
    def test_latency_measured_between_begin_and_end(self, profiler, clock):
        token = profiler.begin("read")
        clock.advance(1000)
        latency = profiler.end(token)
        assert latency == 1000
        assert profiler.profile_set()["read"].count(9) == 1

    def test_double_end_raises(self, profiler, clock):
        token = profiler.begin("read")
        profiler.end(token)
        with pytest.raises(RuntimeError):
            profiler.end(token)

    def test_nested_requests_each_measured(self, profiler, clock):
        outer = profiler.begin("readdir")
        clock.advance(100)
        inner = profiler.begin("readpage")
        clock.advance(1000)
        profiler.end(inner)
        clock.advance(100)
        profiler.end(outer)
        profiles = profiler.profile_set()
        assert profiles["readpage"].total_latency == 1000
        assert profiles["readdir"].total_latency == 1200

    def test_negative_latency_clamped(self, profiler, clock):
        # Clock skew across CPUs can produce negative deltas (§3.4).
        token = profiler.begin("read")
        clock.now = -50
        latency = profiler.end(token)
        assert latency == 0.0
        assert profiler.profile_set()["read"].count(0) == 1

    def test_disabled_profiler_records_nothing(self, clock):
        prof = Profiler(clock=clock)
        prof.enabled = False
        token = prof.begin("read")
        clock.advance(10)
        assert prof.end(token) is None
        prof.record("write", 10)
        assert len(prof.profile_set()) == 0

    def test_disable_keeps_samples_taken_before_it(self, profiler, clock):
        # The switch flushes first: a buffered sample keeps the state
        # it was taken under, in both directions.
        with profiler.request("read"):
            clock.advance(10)
        profiler.enabled = False
        with profiler.request("read"):
            clock.advance(10)
        profiler.enabled = True
        assert profiler.profile_set()["read"].total_ops == 1


class TestContextManagerAndDecorator:
    def test_request_context_manager(self, profiler, clock):
        with profiler.request("write"):
            clock.advance(500)
        assert profiler.profile_set()["write"].total_ops == 1

    def test_request_records_on_exception(self, profiler, clock):
        with pytest.raises(RuntimeError):
            with profiler.request("write"):
                clock.advance(500)
                raise RuntimeError("boom")
        assert profiler.profile_set()["write"].total_ops == 1

    def test_wrap_uses_function_name(self, profiler, clock):
        @profiler.wrap()
        def fsync():
            clock.advance(42)
            return "ok"

        assert fsync() == "ok"
        assert profiler.profile_set()["fsync"].total_ops == 1

    def test_wrap_with_explicit_name(self, profiler, clock):
        @profiler.wrap("custom")
        def helper():
            clock.advance(1)

        helper()
        assert "custom" in profiler.profile_set()

    def test_record_direct(self, profiler):
        profiler.record("op", 12345)
        assert profiler.profile_set()["op"].total_ops == 1


class TestHousekeeping:
    def test_reset_clears_profiles(self, profiler, clock):
        with profiler.request("a"):
            clock.advance(1)
        profiler.reset()
        assert len(profiler.profile_set()) == 0

    def test_profile_set_counts_every_request(self, profiler, clock):
        for _ in range(5):
            with profiler.request("x"):
                clock.advance(1)
        assert profiler.profile_set().total_ops() == 5

    def test_measurement_overhead_positive_with_real_clock(self):
        prof = Profiler(clock=tsc_clock())
        overhead = prof.measurement_overhead(samples=100)
        assert overhead >= 0

    def test_measurement_overhead_validates_samples(self, profiler):
        with pytest.raises(ValueError):
            profiler.measurement_overhead(samples=0)

    def test_tsc_clock_monotone(self):
        clock = tsc_clock()
        a = clock()
        b = clock()
        assert b >= a
