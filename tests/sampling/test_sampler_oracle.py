"""Differential oracle: the batched sampler against the per-tick algorithm.

:class:`ReferenceSampler` is the straightforward design the engine's
periodic observer replaces: one self-rescheduling engine event per
tick, one full process-table walk per event, one sample per walk.
Every capture here runs twice — once under the reference, once under
:class:`~repro.sampling.WaitStateSampler` — on identically built
machines, and the two StateProfiles must be byte-identical with equal
``intervals``.

The matrix covers every registry scenario, the timer interrupt on and
off, and intervals of 0.37 ms, 0.5 ms and 4 ms (the timer period).
Beyond plain runs to completion: a ``run(until=...)`` tail after the
workload, ``stop()``/``start()``/``reset()`` between bounded engine
runs and from inside engine events, and a workload whose wake-ups land
exactly on tick times, so the equal-time tie rule is exercised.
Iterations are cut to keep the whole file quick.
"""

import pytest

from repro.sampling import StateProfile, WaitStateSampler, canonical_wait_site
from repro.scenarios import SCENARIOS, build_system
from repro.sim import Condition, CpuBurst, ProcessState, WaitCondition
from repro.sim.engine import seconds
from repro.workloads.runner import run_named_workload

INTERVALS = {"0.37ms": seconds(0.37e-3), "0.5ms": seconds(0.5e-3),
             "4ms": seconds(4e-3)}

#: Iteration caps: enough for thousands of ticks per run, except on the
#: fast SSD rows, which need their full count to span a few 4 ms ticks.
ITERATIONS = 40
FAST_SCENARIOS = ("ssd-gc", "ssd-gc-worn")


class ReferenceSampler:
    """The per-tick sampler: one engine event and one walk per tick."""

    def __init__(self, kernel, interval, name="state-samples"):
        self.kernel = kernel
        self.interval = float(interval)
        self.name = name
        self._profile = StateProfile(name=name, interval=self.interval)
        self._event = None

    @property
    def running(self):
        return self._event is not None

    def start(self):
        assert self._event is None
        self._event = self.kernel.engine.schedule(self.interval, self._tick)

    def stop(self):
        if self._event is not None:
            self.kernel.engine.cancel(self._event)
            self._event = None

    def _tick(self):
        for proc in self.kernel.processes:
            if proc.state == ProcessState.DONE:
                continue
            ctx = proc.request_context
            layer, op = ("user", "-") if ctx is None else (ctx.layer,
                                                           ctx.operation)
            site = (canonical_wait_site(proc.wait_site or "unknown")
                    if proc.state == ProcessState.BLOCKED else "-")
            self._profile.add(proc.state, layer, op, site)
        self._profile.intervals += 1
        self._event = self.kernel.engine.schedule(self.interval, self._tick)

    def profile(self):
        snap = StateProfile(name=self.name, interval=self.interval)
        snap.merge(self._profile)
        return snap

    def reset(self):
        self._profile = StateProfile(name=self.name, interval=self.interval)


def build(scenario, with_timer, interval, sampler_cls):
    row = SCENARIOS[scenario]
    system = build_system(scenario, fs_type=row.fs_type, seed=2006,
                          with_timer=with_timer)
    sampler = sampler_cls(system.kernel, interval)
    sampler.start()
    return system, sampler


def run_scenario(system, scenario):
    row = SCENARIOS[scenario]
    iterations = row.iterations if scenario in FAST_SCENARIOS \
        else min(row.iterations, ITERATIONS)
    run_named_workload(system, row.workload, seed=2006, scale=row.scale,
                       processes=row.processes, iterations=iterations)


def tick_time_after(now, interval, extra):
    """The *extra*-th tick time past *now* on the grid started at 0."""
    at = 0.0
    while at <= now:
        at += interval
    for _ in range(extra):
        at += interval
    return at


def capture(sampler_cls, scenario, with_timer, interval):
    """Run to completion, then a bounded tail past the workload's end."""
    system, sampler = build(scenario, with_timer, interval, sampler_cls)
    run_scenario(system, scenario)
    done = sampler.profile()
    # The tail ends exactly on a tick time: the flush is inclusive.
    system.kernel.run(until=tick_time_after(system.kernel.now, interval, 7))
    return done, sampler.profile()


def assert_same(reference, batched):
    assert batched.intervals == reference.intervals
    assert batched.to_bytes() == reference.to_bytes()


@pytest.mark.parametrize("interval", sorted(INTERVALS))
@pytest.mark.parametrize("with_timer", [False, True],
                         ids=["timer-off", "timer-on"])
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_batched_matches_per_tick(scenario, with_timer, interval):
    cycles = INTERVALS[interval]
    ref_done, ref_tail = capture(ReferenceSampler, scenario, with_timer,
                                 cycles)
    done, tail = capture(WaitStateSampler, scenario, with_timer, cycles)
    assert ref_done.total_samples() > 0
    assert ref_tail.intervals > ref_done.intervals
    assert_same(ref_done, done)
    assert_same(ref_tail, tail)


def chunked_capture(sampler_cls, scenario, interval, chunk):
    """Drive the workload in bounded runs, toggling the sampler between.

    Chunk boundaries cycle through stop, start, and reset (after taking
    a snapshot), so every lifecycle call lands mid-run.
    """
    system, sampler = build(scenario, False, interval, sampler_cls)
    kernel = system.kernel
    snapshots = []

    def chunked(procs):
        turn = 0
        while not all(p.done for p in procs):
            kernel.run(until=kernel.now + chunk)
            action = turn % 3
            if action == 0:
                sampler.stop()
            elif action == 1:
                sampler.start()
            else:
                snapshots.append(sampler.profile().to_bytes())
                sampler.reset()
            turn += 1

    system.run = chunked
    run_scenario(system, scenario)
    snapshots.append(sampler.profile().to_bytes())
    return snapshots


@pytest.mark.parametrize("scenario", ["spindle-randomread",
                                      "throttled-iops"])
def test_lifecycle_between_runs(scenario):
    interval = INTERVALS["0.5ms"]
    chunk = 13.25 * interval
    reference = chunked_capture(ReferenceSampler, scenario, interval, chunk)
    batched = chunked_capture(WaitStateSampler, scenario, interval, chunk)
    assert len(reference) > 2
    assert batched == reference


def evented_capture(sampler_cls, interval):
    """Stop, restart and reset the sampler from inside engine events."""
    system, sampler = build("raid0-stripe", False, interval, sampler_cls)
    engine = system.kernel.engine
    snapshots = []

    def snapshot_and_reset():
        snapshots.append(sampler.profile().to_bytes())
        sampler.reset()

    # The restart puts the ticks on a new grid, offset from the first.
    engine.schedule_at(20 * interval, sampler.stop)
    engine.schedule_at(31 * interval, sampler.start)
    engine.schedule_at(61 * interval, snapshot_and_reset)
    run_scenario(system, "raid0-stripe")
    snapshots.append(sampler.profile().to_bytes())
    return snapshots


def test_lifecycle_inside_events():
    interval = INTERVALS["0.5ms"]
    assert evented_capture(WaitStateSampler, interval) == \
        evented_capture(ReferenceSampler, interval)


def metronome_capture(sampler_cls, interval):
    """Wake-ups fired exactly on tick times: every one of them is a tie.

    Each gate chain fires its condition on every other tick time from
    the first on, waking a process that bursts briefly and waits
    again.  The chain armed
    before the sampler runs *before* the tick at each shared instant,
    the chain armed after it runs *after*; both orders must match the
    reference's heap order.
    """
    system = build_system(None, seed=2006)
    kernel = system.kernel
    engine = kernel.engine
    fired = []

    def waiter(cond, rounds):
        for _ in range(rounds):
            yield WaitCondition(cond)
            yield CpuBurst(interval / 8)

    def gate(cond, at, rounds):
        def fire():
            fired.append(engine.now)
            kernel.fire_condition(cond)
            if rounds > 1:
                gate(cond, at + interval + interval, rounds - 1)
        engine.schedule_at(at, fire)

    procs = []
    sampler = sampler_cls(kernel, interval)
    for name, rounds in (("early", 30), ("late", 20)):
        cond = Condition(f"gate:{name}")
        procs.append(kernel.spawn(lambda p, c=cond, r=rounds: waiter(c, r),
                                  name))
        gate(cond, interval, rounds)
        if not sampler.running:
            sampler.start()
    kernel.run_until_done(procs)
    kernel.run(until=kernel.now + 3 * interval)
    return sampler.profile(), fired


def test_equal_time_ties_follow_schedule_order():
    interval = INTERVALS["0.5ms"]
    ref, fired = metronome_capture(ReferenceSampler, interval)
    batched, _ = metronome_capture(WaitStateSampler, interval)
    ticks = set()
    at = 0.0
    for _ in range(ref.intervals):
        at += interval
        ticks.add(at)
    assert len(fired) == 50 and set(fired) <= ticks
    assert_same(ref, batched)
