"""Tests for the discrete-event engine."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import (CYCLES_PER_SECOND, Engine, cycles_to_seconds,
                              seconds)


class TestTimeConversions:
    def test_roundtrip(self):
        assert cycles_to_seconds(seconds(0.5)) == pytest.approx(0.5)

    def test_nominal_frequency(self):
        assert seconds(1.0) == CYCLES_PER_SECOND


class TestScheduling:
    def test_events_run_in_time_order(self):
        engine = Engine()
        order = []
        engine.schedule(30, lambda: order.append("c"))
        engine.schedule(10, lambda: order.append("a"))
        engine.schedule(20, lambda: order.append("b"))
        engine.run()
        assert order == ["a", "b", "c"]
        assert engine.now == 30

    def test_ties_run_in_schedule_order(self):
        engine = Engine()
        order = []
        engine.schedule(10, lambda: order.append(1))
        engine.schedule(10, lambda: order.append(2))
        engine.run()
        assert order == [1, 2]

    def test_past_scheduling_rejected(self):
        engine = Engine()
        engine.now = 100
        with pytest.raises(ValueError):
            engine.schedule(-1, lambda: None)
        with pytest.raises(ValueError):
            engine.schedule_at(50, lambda: None)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_times_rejected(self, bad):
        engine = Engine()
        engine.now = 100
        with pytest.raises(ValueError):
            engine.schedule(bad, lambda: None)
        with pytest.raises(ValueError):
            engine.schedule_at(bad, lambda: None)
        assert engine.pending() == 0
        engine.run()
        assert engine.now == 100

    def test_events_scheduled_during_events(self):
        engine = Engine()
        seen = []

        def first():
            seen.append(engine.now)
            engine.schedule(5, lambda: seen.append(engine.now))

        engine.schedule(10, first)
        engine.run()
        assert seen == [10, 15]

    def test_cancellation(self):
        engine = Engine()
        seen = []
        event = engine.schedule(10, lambda: seen.append("no"))
        engine.cancel(event)
        engine.schedule(20, lambda: seen.append("yes"))
        engine.run()
        assert seen == ["yes"]
        # Idempotent.
        engine.cancel(event)

    def test_pending_ignores_cancelled(self):
        engine = Engine()
        e1 = engine.schedule(10, lambda: None)
        engine.schedule(20, lambda: None)
        engine.cancel(e1)
        assert engine.pending() == 1


class TestRunBounds:
    def test_until_advances_clock_even_if_queue_drains(self):
        engine = Engine()
        engine.schedule(5, lambda: None)
        engine.run(until=100)
        assert engine.now == 100

    def test_until_leaves_future_events(self):
        engine = Engine()
        seen = []
        engine.schedule(5, lambda: seen.append(5))
        engine.schedule(200, lambda: seen.append(200))
        engine.run(until=100)
        assert seen == [5]
        assert engine.pending() == 1

    def test_max_events(self):
        engine = Engine()
        seen = []
        for i in range(5):
            engine.schedule(i + 1, lambda i=i: seen.append(i))
        executed = engine.run(max_events=2)
        assert executed == 2
        assert seen == [0, 1]

    def test_halt_ends_run_after_current_event(self):
        engine = Engine()
        seen = []

        def second():
            seen.append(2)
            engine.halt()
            seen.append("rest of event")

        engine.schedule(1, lambda: seen.append(1))
        engine.schedule(2, second)
        engine.schedule(3, lambda: seen.append(3))
        assert engine.run() == 2
        assert seen == [1, 2, "rest of event"]
        assert engine.now == 2
        # The halt ended that run only.
        assert engine.run() == 1
        assert seen[-1] == 3

    def test_halt_between_runs_ends_the_next_after_one_event(self):
        engine = Engine()
        for t in (1, 2, 3):
            engine.schedule(t, lambda: None)
        engine.halt()
        assert engine.run() == 1
        assert engine.run() == 2

    def test_halt_before_a_run_on_an_empty_queue_is_spent(self):
        engine = Engine()
        engine.halt()
        assert engine.run() == 0
        engine.schedule(1, lambda: None)
        engine.schedule(2, lambda: None)
        assert engine.run() == 2

    def test_step_returns_false_on_empty(self):
        assert Engine().step() is False

    def test_events_processed_counter(self):
        engine = Engine()
        engine.schedule(1, lambda: None)
        engine.schedule(2, lambda: None)
        engine.run()
        assert engine.events_processed == 2


class TestAdvance:
    """In-place events: advance() succeeds only for the next event."""

    @staticmethod
    def attempt(engine, at, to, **run_bounds):
        """From an event at *at*, try advance(*to*); (result, clock)."""
        seen = []
        engine.schedule_at(
            at, lambda: seen.append((engine.advance(to), engine.now)))
        engine.run(**run_bounds)
        return seen[0]

    def test_next_event_runs_in_place(self):
        engine = Engine()
        engine.schedule_at(6, lambda: None)
        assert self.attempt(engine, 1, 5) == (True, 5)
        assert engine.events_processed == 3
        assert engine.now == 6

    def test_refused_at_a_tie_with_the_head(self):
        engine = Engine()
        engine.schedule_at(5, lambda: None)
        assert self.attempt(engine, 1, 5) == (False, 1)
        assert engine.events_processed == 2

    def test_cancelled_head_is_conservative(self):
        engine = Engine()
        engine.cancel(engine.schedule_at(3, lambda: None))
        assert self.attempt(engine, 1, 5) == (False, 1)

    def test_refused_at_or_after_the_next_tick(self):
        for to, ok in ((3.5, True), (4, False), (4.5, False)):
            engine = Engine()
            ticks = []
            engine.observe(4, ticks.append)
            assert self.attempt(engine, 1, to) == (ok, to if ok else 1)

    def test_refused_past_until(self):
        for to, ok in ((5, True), (5.5, False)):
            engine = Engine()
            assert self.attempt(engine, 1, to, until=5) == \
                (ok, to if ok else 1)
            assert engine.now == 5

    def test_refused_at_the_max_events_budget(self):
        engine = Engine()
        assert self.attempt(engine, 1, 5, max_events=1) == (False, 1)
        engine = Engine()
        assert self.attempt(engine, 1, 5, max_events=2) == (True, 5)

    def test_refused_after_halt(self):
        engine = Engine()
        seen = []

        def event():
            engine.halt()
            seen.append(engine.advance(5))

        engine.schedule_at(1, event)
        engine.schedule_at(9, lambda: None)
        assert engine.run() == 1
        assert seen == [False]
        assert engine.now == 1

    def test_refused_outside_run(self):
        engine = Engine()
        assert engine.advance(5) is False
        seen = []
        engine.schedule_at(1, lambda: seen.append(engine.advance(5)))
        assert engine.step() is True
        assert seen == [False]
        assert engine.now == 1 and engine.events_processed == 1

    def test_max_events_counts_in_place_events(self):
        engine = Engine()
        times = []

        def spin():
            # A continuation chain that runs in place while it can.
            while True:
                times.append(engine.now)
                if not engine.advance(engine.now + 1):
                    engine.schedule(1, spin)
                    return

        engine.schedule_at(0, spin)
        assert engine.run(max_events=4) == 4
        assert engine.events_processed == 4
        assert times == [0, 1, 2, 3]
        assert engine.run(max_events=3) == 3
        assert times == [0, 1, 2, 3, 4, 5, 6]
        assert engine.pending() == 1


class TestObserver:
    """The periodic observer slot: batched ticks, exact tie order."""

    def test_event_scheduled_before_arming_wins_the_first_tie(self):
        engine = Engine()
        log = []
        engine.schedule_at(5, lambda: log.append("event"))
        engine.observe(5, lambda n: log.append(("tick", n)))
        engine.run()
        assert log == ["event"]

    def test_event_scheduled_after_arming_loses_the_first_tie(self):
        engine = Engine()
        log = []
        engine.observe(5, lambda n: log.append(("tick", n)))
        engine.schedule_at(5, lambda: log.append("event"))
        engine.run()
        assert log == [("tick", 1), "event"]

    def test_later_ties_follow_the_previous_tick(self):
        engine = Engine()
        log = []
        engine.observe(5, lambda n: log.append(("tick", n)))
        # Scheduled before tick 1 fires: runs before tick 2 at t=10.
        engine.schedule_at(3, lambda: engine.schedule_at(
            10, lambda: log.append("early")))
        # Scheduled after tick 1 fires: runs after tick 2 at t=10.
        engine.schedule_at(7, lambda: engine.schedule_at(
            10, lambda: log.append("late")))
        engine.run()
        assert log == [("tick", 1), "early", ("tick", 1), "late"]

    def test_ticks_between_events_arrive_in_one_call(self):
        engine = Engine()
        calls = []
        engine.observe(2, calls.append)
        engine.schedule_at(9, lambda: None)
        engine.schedule_at(30, lambda: None)
        engine.run()
        # Tick 30 loses its tie: t=30 was queued before tick 28 fired.
        assert calls == [4, 10]
        assert engine.events_processed == 2

    def test_until_flush_is_inclusive(self):
        engine = Engine()
        calls = []
        engine.observe(5, calls.append)
        engine.run(until=15)
        assert calls == [3]
        assert engine.now == 15
        engine.run(until=19.5)
        assert calls == [3]
        engine.run(until=20)
        assert calls == [3, 1]

    def test_no_flush_on_halt_or_max_events(self):
        engine = Engine()
        calls = []
        engine.observe(1, calls.append)
        engine.schedule_at(10, engine.halt)
        for t in (20, 30):
            engine.schedule_at(t, lambda: None)
        engine.run(until=100)
        assert calls == [9]
        engine.run(until=100, max_events=1)
        assert calls == [9, 10]

    def test_run_ends_when_queue_drains(self):
        engine = Engine()
        calls = []
        engine.observe(1, calls.append)
        engine.schedule_at(3, lambda: None)
        assert engine.run() == 1
        assert calls == [2]
        assert engine.step() is False
        assert calls == [2]

    def test_second_observer_rejected(self):
        engine = Engine()
        engine.observe(5, lambda n: None)
        with pytest.raises(RuntimeError):
            engine.observe(5, lambda n: None)

    def test_non_positive_interval_rejected(self):
        engine = Engine()
        with pytest.raises(ValueError):
            engine.observe(0, lambda n: None)

    def test_stop_observing_is_idempotent(self):
        engine = Engine()
        calls = []
        engine.stop_observing()
        engine.observe(1, calls.append)
        engine.stop_observing()
        engine.stop_observing()
        engine.schedule_at(10, lambda: None)
        engine.run(until=20)
        assert calls == []
        engine.observe(1, calls.append)
        engine.run(until=25)
        assert calls == [5]

    def test_max_events_and_pending_count_only_real_events(self):
        engine = Engine()
        calls = []
        engine.observe(1, calls.append)
        for t in (10, 20, 30):
            engine.schedule_at(t, lambda: None)
        assert engine.pending() == 3
        assert engine.run(max_events=2) == 2
        assert engine.events_processed == 2
        assert engine.pending() == 1
        # Ticks 1..9 and 10..19; each event wins its tie, having been
        # queued before the previous tick fired.
        assert calls == [9, 10]


# -- observer vs a self-rescheduling reference event ------------------------

#: One root event: (time, delays of the children it schedules, index of
#: the root it cancels or None).  Integer times make ties common.
_root = st.tuples(st.integers(0, 20),
                  st.lists(st.integers(0, 6), max_size=2),
                  st.one_of(st.none(), st.integers(0, 7)))


def _drive(roots, interval, arm_after, mode, bound, batched):
    """Run one schedule; returns the interleaved event/tick log.

    ``batched`` arms the engine's observer; otherwise a self-rescheduling
    event plays the tick, and the engine is stepped by hand until the
    point where the observer's run would end (no live real events left,
    or the mode's bound reached).
    """
    engine = Engine()
    log = []
    executed = [0]
    handles = {}

    def real(name, children=(), cancel=None):
        def fn():
            executed[0] += 1
            log.append((name, engine.now))
            for k, delay in enumerate(children):
                engine.schedule(delay, real(f"{name}.{k}"))
            if cancel is not None and cancel in handles:
                engine.cancel(handles[cancel])
            if batched and mode == "halt" and executed[0] >= bound:
                engine.halt()
        return fn

    def tick():
        log.append(("tick", executed[0]))
        engine.schedule(interval, tick)

    def arm():
        if batched:
            engine.observe(interval, lambda n: log.extend(
                [("tick", executed[0])] * n))
        else:
            engine.schedule(interval, tick)

    for i, (time, children, cancel) in enumerate(roots):
        if i == arm_after:
            arm()
        handles[i] = engine.schedule_at(time, real(f"r{i}", children,
                                                   cancel))
    if arm_after >= len(roots):
        arm()

    def step_until(done):
        while engine.step() and not done():
            pass

    def drained():
        return engine.pending() == 1

    if mode == "until":
        engine.run(until=bound)
    elif batched and mode == "max_events":
        assert engine.run(max_events=bound) == executed[0]
        assert executed[0] <= bound
    elif batched:
        engine.run()
    elif mode == "run":
        step_until(drained)
    else:
        step_until(lambda: executed[0] >= bound or drained())
    pending = engine.pending() - (0 if batched else 1)
    return log, pending


class TestObserverMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(roots=st.lists(_root, min_size=1, max_size=8),
           interval=st.integers(1, 4),
           arm_after=st.integers(0, 8),
           mode=st.sampled_from(["run", "until", "max_events", "halt"]),
           bound=st.integers(1, 24))
    def test_same_log_as_self_rescheduling_event(self, roots, interval,
                                                 arm_after, mode, bound):
        batched = _drive(roots, interval, arm_after, mode, bound, True)
        reference = _drive(roots, interval, arm_after, mode, bound, False)
        assert batched == reference
