"""Discrete-event simulation engine.

Everything in the simulated OS — CPU bursts, disk seeks, TCP timers,
semaphore waits — is an event on a single priority queue ordered by
simulated time, measured in **CPU cycles** at a nominal 1.7 GHz (the
paper's Pentium 4), so latency bucket numbers line up with the paper's
figures.

The engine is deliberately minimal: it knows nothing about processes or
devices.  Higher layers (:mod:`repro.sim.scheduler`, :mod:`repro.disk`,
:mod:`repro.net`) schedule callbacks; determinism is guaranteed by the
(time, sequence-number) ordering, so two runs with the same seed replay
identically.

Besides the queue the engine has one *periodic observer* slot
(:meth:`Engine.observe`): a read-only callback on a fixed sim-clock
period that is never put in the heap.  Nothing can change between two
events, so instead of one event per period the engine counts the
periods that fall before the next event and calls the observer once
with that count — the wait-state sampler's cost then scales with the
number of events, not with the number of ticks.

An event that would run next need not go through the heap at all: a
caller that knows the time of its own next event asks
:meth:`Engine.advance`, which moves the clock there and counts it as one
event only when nothing queued, no observer tick and no bound of the
run in progress would come first.  The scheduler completes most CPU
bursts this way.  :meth:`Engine.halt` ends the run after the current
event.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, List, Optional

__all__ = ["Event", "Engine", "CYCLES_PER_SECOND", "seconds", "cycles_to_seconds"]

#: Nominal simulated CPU frequency: 1.7 GHz, the paper's test machine.
CYCLES_PER_SECOND = 1.7e9


def seconds(s: float) -> float:
    """Convert seconds to simulated cycles."""
    return s * CYCLES_PER_SECOND


def cycles_to_seconds(c: float) -> float:
    """Convert simulated cycles to seconds."""
    return c / CYCLES_PER_SECOND


class Event:
    """A scheduled callback; cancellable without queue surgery."""

    __slots__ = ("time", "seq", "fn", "cancelled")

    def __init__(self, time: float, seq: int, fn: Callable[[], None]):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.cancelled = False

    def __lt__(self, other: "Event") -> bool:
        time = self.time
        other_time = other.time
        return time < other_time or (time == other_time
                                     and self.seq < other.seq)

    def __repr__(self) -> str:
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time:.0f}{state}>"


class Engine:
    """The event loop: a heap of :class:`Event` plus the simulated clock."""

    def __init__(self):
        self.now: float = 0.0
        self._queue: List[Event] = []
        self._seq = 0
        self.events_processed = 0
        # The periodic observer: its callback, its period, the time of
        # its next tick (inf when unset) and that tick's tie boundary.
        self._observer: Optional[Callable[[int], None]] = None
        self._observe_interval = 0.0
        self._observe_at = math.inf
        self._observe_seq = 0
        # The bounds of the run() in progress, read by advance(): the
        # last time it may reach, the events_processed count it ends at,
        # and whether halt() was called.  Outside run() nothing advances.
        self._until = -math.inf
        self._event_limit = math.inf
        self._halted = False

    # -- scheduling --------------------------------------------------------

    def schedule(self, delay: float, fn: Callable[[], None]) -> Event:
        """Run *fn* after *delay* cycles; returns a cancellable handle."""
        if delay < 0:
            raise ValueError("cannot schedule into the past")
        return self.schedule_at(self.now + delay, fn)

    def schedule_at(self, time: float, fn: Callable[[], None]) -> Event:
        """Run *fn* at absolute simulated time *time*.

        The time must be finite: a NaN or infinite time would poison the
        clock of every event after it.
        """
        if not self.now <= time < math.inf:
            if time < self.now:
                raise ValueError("cannot schedule into the past")
            raise ValueError(f"event time must be finite, got {time!r}")
        self._seq += 1
        event = Event(time, self._seq, fn)
        heapq.heappush(self._queue, event)
        return event

    @staticmethod
    def cancel(event: Event) -> None:
        """Cancel a pending event (idempotent)."""
        event.cancelled = True

    # -- the periodic observer ---------------------------------------------

    def observe(self, interval: float, fn: Callable[[int], None]) -> None:
        """Call ``fn(n)`` for ticks every *interval* cycles from now on.

        Tick 1 is at ``now + interval`` and tick k+1 at tick k plus
        ``interval``; each sits in the event order exactly where a
        self-rescheduling event would: an
        event at the same time runs before the tick only if it was
        scheduled before the previous tick fired (before this call for
        the first tick).  Ticks are delivered lazily, just before the
        next event runs: ``n`` is how many ticks fell since the last
        call, with the clock still at the previous event.  *fn* must
        only read simulation state, never schedule or cancel events.
        One observer at a time; a second raises ``RuntimeError``.
        """
        if interval <= 0:
            raise ValueError("observer interval must be positive")
        if self._observer is not None:
            raise RuntimeError("engine already has an observer")
        self._observer = fn
        self._observe_interval = interval
        self._observe_at = self.now + interval
        self._observe_seq = self._seq

    def stop_observing(self) -> None:
        """Remove the observer; ticks not yet delivered are dropped."""
        self._observer = None
        self._observe_at = math.inf

    def _observe_before(self, time: float, seq: int) -> None:
        """Deliver the ticks ordered before an event at ``(time, seq)``.

        Called only when ``time >= self._observe_at``.  Every tick after
        the first sits after all queued events at its time (its boundary
        is the current ``_seq``), so only the first one can lose a tie.
        """
        at = self._observe_at
        if at == time and seq <= self._observe_seq:
            return
        interval = self._observe_interval
        boundary = self._seq
        ticks = 1
        at += interval
        while at < time or (at == time and seq > boundary):
            ticks += 1
            at += interval
        self._observe_at = at
        self._observe_seq = boundary
        self._observer(ticks)

    # -- execution ---------------------------------------------------------

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued.

        The observer is not an event and is never counted.
        """
        return sum(1 for e in self._queue if not e.cancelled)

    def step(self) -> bool:
        """Run the next live event; False when the queue is empty.

        Observer ticks due before that event are delivered first, in one
        call; with an empty queue no tick is delivered.
        """
        while self._queue:
            event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            if event.time >= self._observe_at:
                self._observe_before(event.time, event.seq)
            self.now = event.time
            self.events_processed += 1
            event.fn()
            return True
        return False

    def advance(self, time: float) -> bool:
        """Run the caller's next event in place, at *time*, if it is next.

        The caller is inside an event and about to schedule its own
        continuation at *time*.  When that event would be the very next
        one :meth:`run` executes, this moves ``now`` to *time*, counts
        one event in ``events_processed`` and returns True; the caller
        then runs the continuation itself instead of scheduling it.
        That holds when *time* is strictly before the queue's head (a
        new event would lose every tie; a cancelled head only makes the
        test conservative), strictly before the observer's next tick,
        at or before the run's ``until``, within its ``max_events``
        budget, and the run has not been halted.  Otherwise, and always
        outside :meth:`run`, nothing changes and it returns False: the
        caller schedules as usual.
        """
        queue = self._queue
        if (time < self._observe_at and time <= self._until
                and self.events_processed < self._event_limit
                and not self._halted
                and (not queue or time < queue[0].time)):
            self.now = time
            self.events_processed += 1
            return True
        return False

    def halt(self) -> None:
        """End the current :meth:`run` once the event now executing returns.

        No later event runs, in place or from the queue, and no pending
        tick is delivered.  Called outside a run, it ends the next run
        after that run's first event.
        """
        self._halted = True

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> int:
        """Drain the queue, optionally bounded by time and event count.

        With ``until``, the clock is advanced to exactly ``until`` even
        if the queue drains earlier, and the observer ticks at or before
        ``until`` are delivered, so periodic observers see a full
        window.  A run ended by :meth:`halt` (used to stop as soon as a
        workload completes, before unrelated periodic events inflate
        the clock) or by ``max_events`` delivers no pending tick.
        Returns the number of events executed, counted from
        ``events_processed`` so events run in place by :meth:`advance`
        count exactly like queued ones, toward the result and toward
        ``max_events``; observer ticks are not events and count toward
        neither.
        """
        start = self.events_processed
        queue = self._queue
        self._until = math.inf if until is None else until
        self._event_limit = math.inf if max_events is None \
            else start + max_events
        try:
            while queue:
                if self.events_processed >= self._event_limit:
                    return self.events_processed - start
                head = queue[0]
                if head.cancelled:
                    heapq.heappop(queue)
                    continue
                if head.time > self._until:
                    break
                self.step()
                if self._halted:
                    return self.events_processed - start
        finally:
            self._until = -math.inf
            self._halted = False
        if until is not None:
            if until >= self._observe_at:
                # A virtual event after everything queued at ``until``.
                self._observe_before(until, self._seq + 1)
            if self.now < until:
                self.now = until
        return self.events_processed - start
