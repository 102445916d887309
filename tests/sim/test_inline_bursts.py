"""Differential oracle: in-place CPU bursts against the all-heap path.

A CPU burst whose completion would be the very next event completes in
place through :meth:`Kernel.burn <repro.sim.scheduler.Kernel.burn>`,
called from the scheduler's stepping loop or from inside the generator,
which asks :meth:`Engine.advance <repro.sim.engine.Engine.advance>`.
:class:`HeapOnlyEngine` refuses every such request, so each burst
completion is a queued event, the way every completion used to be.
Every run here is made twice on identically built machines, once per
engine, and everything observable must be identical: the user, fs and
driver profile bytes, the wait-state profile bytes, the event count, the
final clock, the context switches and every process's accounting.

The matrix covers every registry scenario with the timer interrupt on
and off and the sampler off, at 0.37 ms and at 0.5 ms, plus kernel-level
programs for in-kernel preemption on and off, two CPUs, semaphore
contention on two CPUs, quantum expiry both mid-burst and exactly at a
burst boundary, and a timer interrupt delaying a running chunk.
Iterations are cut to keep the file quick.
"""

from contextlib import contextmanager
from unittest import mock

import pytest

from repro.scenarios import SCENARIOS, build_system
from repro.sim import scheduler
from repro.sim.engine import Engine, seconds
from repro.sim.interrupts import TimerInterrupt
from repro.sim.process import CpuBurst, Sleep, Spawn, YieldCpu
from repro.sim.rng import SimRandom
from repro.sim.sync import Semaphore
from repro.workloads.runner import run_named_workload

ITERATIONS = 60
SAMPLERS = {"sampler-off": None, "sampler-0.37ms": seconds(0.37e-3),
            "sampler-0.5ms": seconds(0.5e-3)}


class HeapOnlyEngine(Engine):
    """The all-heap reference: nothing ever runs in place."""

    def advance(self, time):
        return False


class CountingEngine(Engine):
    """The engine under test, counting the events it ran in place."""

    def __init__(self):
        super().__init__()
        self.in_place = 0

    def advance(self, time):
        ran = super().advance(time)
        self.in_place += ran
        return ran


@contextmanager
def kernels_on(engine_cls):
    """Kernels built inside the block run on *engine_cls*."""
    with mock.patch.object(scheduler, "Engine", engine_cls):
        yield


def kernel_state(kernel):
    """Everything the two engines must agree on, exact floats included."""
    return {
        "events": kernel.engine.events_processed,
        "now": kernel.now,
        "context_switches": kernel.context_switches,
        "processes": [(p.name, p.state, p.cpu_time, p.sys_time, p.user_time,
                       p.wait_time, p.preemptions, p.voluntary_switches,
                       p.finished_at) for p in kernel.processes],
        "cpus": [(c.busy_cycles, c.chunk_size, c.chunk_started, c.chunk_end)
                 for c in kernel.cpus],
    }


# -- every registry scenario -------------------------------------------

def capture_scenario(engine_cls, scenario, with_timer, interval):
    row = SCENARIOS[scenario]
    extra = {} if interval is None else {"state_sample_interval": interval}
    with kernels_on(engine_cls):
        system = build_system(scenario, fs_type=row.fs_type, seed=2006,
                              with_timer=with_timer, **extra)
    run_named_workload(system, row.workload, seed=2006, scale=row.scale,
                       processes=row.processes,
                       iterations=min(row.iterations, ITERATIONS))
    state = kernel_state(system.kernel)
    state["user"] = system.user_profiles().to_bytes()
    state["fs"] = system.fs_profiles().to_bytes()
    state["driver"] = system.driver_profiles().to_bytes()
    if interval is not None:
        state["state"] = system.state_profile().to_bytes()
    return state, system.kernel.engine


@pytest.mark.parametrize("sampler", list(SAMPLERS))
@pytest.mark.parametrize("with_timer", [False, True],
                         ids=["timer-off", "timer-on"])
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_scenario_matches_heap_path(scenario, with_timer, sampler):
    interval = SAMPLERS[sampler]
    reference, _ = capture_scenario(HeapOnlyEngine, scenario, with_timer,
                                    interval)
    inline, engine = capture_scenario(CountingEngine, scenario, with_timer,
                                      interval)
    assert engine.in_place > 0
    assert inline == reference


# -- kernel-level programs ---------------------------------------------

def program_body(kernel, ops, log, sems):
    """A process body interpreting *ops*; logs (name, step, now) per op.

    Ops: ``("burst", cycles, in_kernel)``, ``("sleep", cycles)``,
    ``("yield",)``, ``("lock", sem, cycles)`` (a burst with a semaphore
    held) and ``("spawn", ops)``.
    """
    def body(proc):
        for i, op in enumerate(ops):
            log.append((proc.name, i, kernel.now))
            kind = op[0]
            if kind == "burst":
                proc.in_kernel += op[2]
                yield CpuBurst(op[1])
                proc.in_kernel -= op[2]
            elif kind == "sleep":
                yield Sleep(op[1])
            elif kind == "yield":
                yield YieldCpu()
            elif kind == "lock":
                sem = sems[op[1]]
                yield from sem.acquire(proc)
                yield CpuBurst(op[2])
                yield from sem.release(proc)
            elif kind == "spawn":
                yield Spawn(program_body(kernel, op[1], log, sems),
                            f"{proc.name}.{i}")
            else:
                raise AssertionError(f"unknown op {op!r}")
        log.append((proc.name, "exit", kernel.now))
        return proc.name
    return body


def run_programs(engine_cls, programs, mode="until_done", bound=None,
                 num_cpus=1, quantum=1000, switch_cost=0.0,
                 kernel_preemption=False, timer=None, seed=7):
    """Run *programs* on a fresh kernel.

    Returns ``((log, state, error), kernel, timer)``: what the two
    engines must agree on, then the kernel and the timer for checks
    that the run took the path a test is about.

    ``mode`` is ``run``, ``until`` (``run(until=bound)``),
    ``max_events`` (``run(max_events=bound)``) or ``until_done``
    (``run_until_done`` on the top-level processes).  ``timer`` is an
    optional ``(period, cost)`` timer interrupt.
    """
    kernel = scheduler.Kernel(engine=engine_cls(), num_cpus=num_cpus,
                              quantum=quantum,
                              kernel_preemption=kernel_preemption,
                              context_switch_cost=switch_cost,
                              rng=SimRandom(seed), tsc_skew_seconds=0.0)
    interrupt = None
    if timer is not None:
        interrupt = TimerInterrupt(kernel, period=timer[0], cost=timer[1])
        interrupt.start()
    sems = [Semaphore(kernel, f"s{i}") for i in range(2)]
    log = []
    procs = [kernel.spawn(program_body(kernel, ops, log, sems), f"p{i}")
             for i, ops in enumerate(programs)]
    error = None
    try:
        if mode == "run":
            kernel.run()
        elif mode == "until":
            kernel.run(until=bound)
        elif mode == "max_events":
            kernel.run(max_events=bound)
        else:
            kernel.run_until_done(procs)
    except RuntimeError as exc:
        error = str(exc)
    return (log, kernel_state(kernel), error), kernel, interrupt


def assert_same_as_heap_path(programs, **params):
    """Run both engines; returns the in-place run's kernel and timer."""
    reference, _, _ = run_programs(HeapOnlyEngine, programs, **params)
    inline, kernel, interrupt = run_programs(CountingEngine, programs,
                                             **params)
    assert inline == reference
    assert kernel.engine.in_place > 0
    return kernel, interrupt


#: Two processes mixing user bursts, in-kernel bursts, sleeps and a lock.
MIXED = [
    [("burst", 700, 0), ("burst", 900, 1), ("sleep", 300),
     ("lock", 0, 400), ("burst", 250, 0), ("burst", 1200, 1),
     ("yield",), ("burst", 80, 0)],
    [("burst", 300, 1), ("lock", 0, 600), ("burst", 1500, 0),
     ("sleep", 50), ("burst", 450, 1), ("burst", 120, 0)],
]


@pytest.mark.parametrize("kernel_preemption", [False, True],
                         ids=["non-preemptive", "preemptive"])
def test_kernel_preemption(kernel_preemption):
    kernel, _ = assert_same_as_heap_path(
        MIXED, quantum=1000, switch_cost=20.0,
        kernel_preemption=kernel_preemption)
    assert sum(p.preemptions for p in kernel.processes) > 0


def test_two_cpus():
    programs = MIXED + [[("burst", 200, 0), ("spawn", [("burst", 90, 0)]),
                         ("burst", 2600, 0), ("sleep", 10),
                         ("burst", 40, 1)]]
    kernel, _ = assert_same_as_heap_path(programs, num_cpus=2, quantum=900,
                                         switch_cost=15.0)
    assert {p.cpu_time > 0 for p in kernel.processes} == {True}


def test_semaphore_contention_on_two_cpus():
    # Four lock-heavy processes share two CPUs and one semaphore, so
    # Semaphore.acquire and release burn in place from inside the
    # generator while other acquirers sleep on the semaphore.
    worker = [("lock", 0, 150), ("burst", 100, 1), ("lock", 0, 300),
              ("burst", 50, 0)] * 3
    kernel, _ = assert_same_as_heap_path([worker] * 4, num_cpus=2,
                                         quantum=800, switch_cost=10.0)
    # Nothing sleeps but semaphore waiters.
    assert {p.wait_time > 0 for p in kernel.processes} == {True}


@pytest.mark.parametrize("contended", [False, True],
                         ids=["alone", "contended"])
def test_quantum_expiry_mid_burst_and_at_boundary(contended):
    # Four 250-cycle bursts end exactly on the 1000-cycle quantum; the
    # 700-cycle bursts then straddle the next one.
    hog = [("burst", 250, 0)] * 4 + [("burst", 700, 0)] * 3
    programs = [hog, hog] if contended else [hog]
    kernel, _ = assert_same_as_heap_path(programs, quantum=1000)
    if contended:
        assert sum(p.preemptions for p in kernel.processes) > 0


def test_wake_tied_with_a_burst_end_runs_first():
    # The sleeper's wake-up was queued first, so at the shared time it
    # runs first and preempts the hog before its burst completes.
    programs = [[("sleep", 100)], [("burst", 100, 0)] * 4]
    kernel, _ = assert_same_as_heap_path(programs)
    assert kernel.processes[1].preemptions == 1


def test_timer_interrupt_delays_a_running_chunk():
    programs = [[("burst", 5000, 0), ("burst", 300, 0)] * 4,
                [("burst", 2000, 1), ("sleep", 700), ("burst", 200, 0)] * 3]
    _, interrupt = assert_same_as_heap_path(programs, quantum=3000,
                                            timer=(1700.0, 90.0))
    assert interrupt.delivered > 0
