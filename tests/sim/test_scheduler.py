"""Tests for the simulated kernel's scheduler."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine, seconds
from repro.sim.process import (CpuBurst, ProcessState, Sleep, Spawn,
                               WaitCondition, YieldCpu, Condition)
from repro.sim.scheduler import Kernel

from .test_inline_bursts import HeapOnlyEngine, kernel_state, run_programs


def make_kernel(**kwargs):
    kwargs.setdefault("tsc_skew_seconds", 0.0)
    return Kernel(**kwargs)


class TestBasicExecution:
    def test_single_burst_advances_clock(self):
        k = make_kernel()

        def body(proc):
            yield CpuBurst(1000)
            return "done"

        proc = k.spawn(body, "p")
        k.run_until_done([proc])
        assert proc.exit_value == "done"
        assert proc.cpu_time == pytest.approx(1000)
        assert k.now >= 1000

    def test_spawn_returns_before_child_runs(self):
        k = make_kernel()
        ran = []

        def body(proc):
            ran.append(proc.pid)
            return None
            yield

        proc = k.spawn(body, "child")
        assert ran == []  # not started yet
        k.run_until_done([proc])
        assert ran == [proc.pid]

    def test_sleep_accumulates_wait_time(self):
        k = make_kernel()

        def body(proc):
            yield Sleep(5000)
            return None

        proc = k.spawn(body, "sleeper")
        k.run_until_done([proc])
        assert proc.wait_time == pytest.approx(5000)
        assert proc.cpu_time == 0

    def test_zero_cycle_burst_is_noop(self):
        k = make_kernel()

        def body(proc):
            yield CpuBurst(0)
            yield CpuBurst(10)
            return None

        proc = k.spawn(body, "p")
        k.run_until_done([proc])
        assert proc.cpu_time == pytest.approx(10)

    def test_unknown_effect_raises(self):
        k = make_kernel()

        def body(proc):
            yield object()

        k.spawn(body, "bad")
        with pytest.raises(TypeError):
            k.run(max_events=100)


class TestMultiProcessing:
    def test_two_cpus_run_in_parallel(self):
        k = make_kernel(num_cpus=2)

        def body(proc):
            yield CpuBurst(1000)

        procs = [k.spawn(body, f"p{i}") for i in range(2)]
        k.run_until_done(procs)
        # Parallel: wall clock ~1000, not ~2000.
        assert k.now < 1500

    def test_one_cpu_serializes(self):
        k = make_kernel(num_cpus=1, context_switch_cost=0.0)

        def body(proc):
            yield CpuBurst(1000)

        procs = [k.spawn(body, f"p{i}") for i in range(2)]
        k.run_until_done(procs)
        assert k.now >= 2000

    def test_at_most_one_process_per_cpu(self):
        k = make_kernel(num_cpus=2)

        def body(proc):
            for _ in range(20):
                yield CpuBurst(100)
                yield YieldCpu()

        procs = [k.spawn(body, f"p{i}") for i in range(5)]
        # Invariant check after every event.
        while any(not p.done for p in procs):
            if not k.engine.step():
                break
            running = [p for p in procs
                       if p.state == ProcessState.RUNNING]
            assert len(running) <= 2
            cpus = [p.cpu for p in running]
            assert len(set(cpus)) == len(cpus)

    def test_context_switch_cost_charged(self):
        k = make_kernel(num_cpus=1,
                        context_switch_cost=seconds(5.5e-6))

        def body(proc):
            for _ in range(3):
                yield CpuBurst(100)
                yield YieldCpu()

        procs = [k.spawn(body, f"p{i}") for i in range(2)]
        k.run_until_done(procs)
        assert k.context_switches > 0
        assert k.now > 600  # more than pure CPU time


class TestQuantumAndPreemption:
    def test_long_user_burst_preempted_at_quantum(self):
        k = make_kernel(num_cpus=1, quantum=1000,
                        context_switch_cost=0.0)

        def hog(proc):
            yield CpuBurst(5000)

        a = k.spawn(hog, "a")
        b = k.spawn(hog, "b")
        k.run_until_done([a, b])
        # Round robin: both preempted multiple times.
        assert a.preemptions >= 3
        assert b.preemptions >= 3

    def test_quantum_not_refreshed_midburst_without_contention(self):
        k = make_kernel(num_cpus=1, quantum=1000)

        def solo(proc):
            yield CpuBurst(10_000)

        proc = k.spawn(solo, "solo")
        k.run_until_done([proc])
        assert proc.preemptions == 0

    def test_kernel_burst_not_preempted_on_nonpreemptive_kernel(self):
        k = make_kernel(num_cpus=1, quantum=1000,
                        kernel_preemption=False,
                        context_switch_cost=0.0)
        trace = []

        def in_kernel(proc):
            proc.in_kernel += 1
            yield CpuBurst(5000)  # way past the quantum
            trace.append(("kernel_done", k.now))
            proc.in_kernel -= 1
            yield CpuBurst(10)

        def other(proc):
            yield CpuBurst(10)
            trace.append(("other_done", k.now))

        a = k.spawn(in_kernel, "a")
        b = k.spawn(other, "b")
        k.run_until_done([a, b])
        # The kernel burst finished before 'other' ever ran.
        assert trace[0][0] == "kernel_done"

    def test_kernel_burst_preempted_with_kernel_preemption(self):
        k = make_kernel(num_cpus=1, quantum=1000,
                        kernel_preemption=True,
                        context_switch_cost=0.0)
        trace = []

        def in_kernel(proc):
            proc.in_kernel += 1
            yield CpuBurst(5000)
            trace.append(("kernel_done", k.now))
            proc.in_kernel -= 1

        def other(proc):
            yield CpuBurst(10)
            trace.append(("other_done", k.now))

        a = k.spawn(in_kernel, "a")
        b = k.spawn(other, "b")
        k.run_until_done([a, b])
        assert trace[0][0] == "other_done"

    def test_deferred_preemption_happens_at_user_boundary(self):
        k = make_kernel(num_cpus=1, quantum=100,
                        kernel_preemption=False,
                        context_switch_cost=0.0)

        def syscall_loop(proc):
            for _ in range(10):
                proc.in_kernel += 1
                yield CpuBurst(50)
                proc.in_kernel -= 1
                yield CpuBurst(50)  # user mode

        a = k.spawn(syscall_loop, "a")
        b = k.spawn(syscall_loop, "b")
        k.run_until_done([a, b])
        assert a.preemptions > 0
        assert b.preemptions > 0


class TestConditionsAndJoin:
    def test_condition_wakes_waiter_with_value(self):
        k = make_kernel()
        cond = Condition("test")
        got = []

        def waiter(proc):
            value = yield WaitCondition(cond)
            got.append(value)

        def firer(proc):
            yield CpuBurst(100)
            k.fire_condition(cond, "payload")

        w = k.spawn(waiter, "w")
        f = k.spawn(firer, "f")
        k.run_until_done([w, f])
        assert got == ["payload"]
        assert w.wait_time > 0

    def test_wake_all_vs_wake_one(self):
        k = make_kernel(num_cpus=2)
        cond = Condition("test")
        woken = []

        def waiter(proc):
            yield WaitCondition(cond)
            woken.append(proc.name)

        ws = [k.spawn(waiter, f"w{i}") for i in range(3)]
        k.run(max_events=50)
        assert k.fire_condition(cond, wake_all=False) == 1
        assert k.fire_condition(cond, wake_all=True) == 2
        k.run_until_done(ws)
        assert len(woken) == 3

    def test_join_returns_exit_value(self):
        k = make_kernel(num_cpus=2)

        def child(proc):
            yield CpuBurst(500)
            return 42

        def parent(proc):
            c = yield Spawn(child, "child")
            result = yield from k.join(c)
            return result

        p = k.spawn(parent, "parent")
        k.run_until_done([p])
        assert p.exit_value == 42

    def test_join_on_done_process(self):
        k = make_kernel()

        def child(proc):
            return 7
            yield

        c = k.spawn(child, "c")
        k.run_until_done([c])

        def parent(proc):
            result = yield from k.join(c)
            return result

        p = k.spawn(parent, "p")
        k.run_until_done([p])
        assert p.exit_value == 7


class TestWakeupPreemption:
    def test_waker_displaces_user_hog(self):
        k = make_kernel(num_cpus=1, context_switch_cost=0.0)
        timeline = []

        def sleeper(proc):
            yield Sleep(1000)
            timeline.append(("woke", k.now))

        def hog(proc):
            yield CpuBurst(1_000_000)
            timeline.append(("hog_done", k.now))

        s = k.spawn(sleeper, "sleeper")
        h = k.spawn(hog, "hog")
        k.run_until_done([s, h])
        assert timeline[0][0] == "woke"
        assert timeline[0][1] < 100_000
        assert h.preemptions >= 1

    def test_kernel_hog_not_displaced(self):
        k = make_kernel(num_cpus=1, kernel_preemption=False,
                        context_switch_cost=0.0)
        timeline = []

        def sleeper(proc):
            yield Sleep(1000)
            timeline.append(("woke", k.now))

        def kernel_hog(proc):
            proc.in_kernel += 1
            yield CpuBurst(1_000_000)
            timeline.append(("hog_done", k.now))
            proc.in_kernel -= 1

        s = k.spawn(sleeper, "s")
        h = k.spawn(kernel_hog, "h")
        k.run_until_done([s, h])
        assert timeline[0][0] == "hog_done"


class TestShutdownAndErrors:
    def test_deadlock_detected(self):
        k = make_kernel()
        cond = Condition("never")

        def stuck(proc):
            yield WaitCondition(cond)

        p = k.spawn(stuck, "stuck")
        with pytest.raises(RuntimeError, match="deadlock"):
            k.run_until_done([p])

    def test_shutdown_closes_generators(self):
        k = make_kernel()

        def endless(proc):
            while True:
                yield CpuBurst(100)

        p = k.spawn(endless, "endless")
        k.run(until=10_000)
        k.shutdown()
        assert p.done

    def test_accounting_sys_vs_user(self):
        k = make_kernel()

        def body(proc):
            yield CpuBurst(100)  # user
            proc.in_kernel += 1
            yield CpuBurst(300)  # system
            proc.in_kernel -= 1

        p = k.spawn(body, "p")
        k.run_until_done([p])
        assert p.user_time == pytest.approx(100)
        assert p.sys_time == pytest.approx(300)


class TestSchedulerProperties:
    @given(st.lists(st.integers(min_value=1, max_value=10_000),
                    min_size=1, max_size=12),
           st.integers(min_value=1, max_value=3))
    @settings(max_examples=30, deadline=None)
    def test_total_cpu_time_conserved(self, bursts, cpus):
        k = make_kernel(num_cpus=cpus, context_switch_cost=0.0)

        def body(proc, cycles):
            yield CpuBurst(cycles)

        procs = [k.spawn(lambda p, c=c: body(p, c), f"p{i}")
                 for i, c in enumerate(bursts)]
        k.run_until_done(procs)
        total = sum(p.cpu_time for p in procs)
        assert total == pytest.approx(sum(bursts), rel=1e-9)

    @given(st.integers(min_value=2, max_value=6))
    @settings(max_examples=10, deadline=None)
    def test_all_processes_complete(self, n):
        k = make_kernel(num_cpus=1, quantum=500)

        def body(proc):
            for _ in range(3):
                yield CpuBurst(700)
                yield YieldCpu()

        procs = [k.spawn(body, f"p{i}") for i in range(n)]
        k.run_until_done(procs)
        assert all(p.done for p in procs)


#: One op of a random program (see ``program_body``).  Cycle counts on
#: a coarse grid make ties between completions common.
_cycles = st.integers(1, 3).map(lambda k: 50 * k)
_op = st.one_of(
    st.tuples(st.just("burst"), _cycles, st.integers(0, 1)),
    st.tuples(st.just("sleep"), _cycles | st.just(0)),
    st.tuples(st.just("yield")),
    st.tuples(st.just("lock"), st.integers(0, 1), _cycles),
)
_program = st.lists(
    st.one_of(_op, st.tuples(st.just("spawn"), st.lists(_op, max_size=4))),
    max_size=8)


class TestInPlaceBursts:
    """In-place burst completion is invisible next to the heap path."""

    @settings(max_examples=150, deadline=None)
    @given(programs=st.lists(_program, min_size=1, max_size=4),
           num_cpus=st.integers(1, 3),
           quantum=_cycles | st.integers(50, 1200),
           switch_cost=st.sampled_from([0.0, 7.0, 50.0]),
           kernel_preemption=st.booleans(),
           mode=st.sampled_from(["run", "until", "max_events",
                                 "until_done"]),
           bound=st.integers(0, 200))
    def test_same_event_log_as_heap_path(self, programs, num_cpus, quantum,
                                         switch_cost, kernel_preemption,
                                         mode, bound):
        params = dict(mode=mode, num_cpus=num_cpus, quantum=quantum,
                      switch_cost=switch_cost,
                      kernel_preemption=kernel_preemption,
                      bound=bound * 20 if mode == "until" else bound)
        reference, _, _ = run_programs(HeapOnlyEngine, programs, **params)
        inline, _, _ = run_programs(Engine, programs, **params)
        assert inline == reference

    @pytest.mark.parametrize("end", ["budget", "halt"])
    def test_dispatch_event_ends_with_an_in_place_burst(self, end):
        """A dispatch whose process completes a burst in place ends there.

        The waker is re-dispatched straight onto its CPU by a wake-up,
        completes a burst in place and then queues the waiter.  The
        waiter belongs to the next dispatch event, which a run ended by
        its event budget or by a halt at the waker's exit never reaches.
        """
        def run(engine_cls, budget):
            k = Kernel(engine=engine_cls(), num_cpus=2,
                       context_switch_cost=0.0, tsc_skew_seconds=0.0)
            go = Condition("go")

            def waiter(proc):
                yield WaitCondition(go)
                yield CpuBurst(10)

            def waker(proc):
                yield Sleep(5)
                yield CpuBurst(10)
                k.fire_condition(go)
                if end == "budget":
                    yield Sleep(100)

            procs = [k.spawn(waiter, "waiter"), k.spawn(waker, "waker")]
            if end == "budget":
                k.run(max_events=budget)
            else:
                k.run_until_done(procs[1:])
            return kernel_state(k)

        budgets = range(1, 10) if end == "budget" else [None]
        for budget in budgets:
            assert run(Engine, budget) == run(HeapOnlyEngine, budget)

    def test_cpu_hog_with_an_empty_queue_exhausts_the_budget(self):
        k = make_kernel()

        def hog(proc):
            while True:
                yield CpuBurst(100)

        p = k.spawn(hog, "hog")
        with pytest.raises(RuntimeError, match="event budget exhausted"):
            k.run_until_done([p], max_events=1000)
        assert k.engine.events_processed == 1000
        assert p.cpu_time == pytest.approx(999 * 100)

    def test_deadlock_still_reported_after_in_place_bursts(self):
        k = make_kernel()
        cond = Condition("never")

        def stuck(proc):
            for _ in range(5):
                yield CpuBurst(100)
            yield WaitCondition(cond)

        p = k.spawn(stuck, "stuck")
        with pytest.raises(RuntimeError, match="deadlock:"):
            k.run_until_done([p])
        assert p.cpu_time == pytest.approx(500)

    def test_run_until_done_on_finished_processes_runs_one_event(self):
        k = make_kernel()

        def quick(proc):
            yield CpuBurst(10)

        def slow(proc):
            for _ in range(10):
                yield Sleep(1000)

        p = k.spawn(quick, "quick")
        k.spawn(slow, "slow")
        k.run_until_done([p])
        before = k.engine.events_processed
        k.run_until_done([p])
        assert k.engine.events_processed == before + 1
        k.run_until_done([])
        assert k.engine.events_processed == before + 2

    def test_halts_at_the_last_watched_exit(self):
        k = make_kernel()

        def body(proc, cycles):
            yield CpuBurst(cycles)

        def background(proc):
            while True:
                yield Sleep(50)

        procs = [k.spawn(lambda p, c=c: body(p, c), f"p{c}")
                 for c in (300, 100)]
        k.spawn(background, "bg")
        k.run_until_done(procs)
        assert k.now == max(p.finished_at for p in procs)


def burn_snapshot(k, proc):
    """What a refused burn must leave untouched."""
    cpu = k.cpus[proc.cpu] if proc.cpu is not None else None
    return (k.now, k.engine.events_processed, proc.cpu_time, proc.sys_time,
            proc.user_time, proc.remaining_burst, proc.quantum_left,
            proc.preempt_pending, proc.preemptions,
            None if cpu is None else (cpu.busy_cycles, cpu.chunk_size,
                                      cpu.chunk_started, cpu.chunk_end))


class TestBurn:
    """``Kernel.burn``: a burst completed from inside the generator."""

    @staticmethod
    def burn_in(k, cycles, setup=None, target=None, others=0,
                run=lambda k, procs: k.run_until_done(procs)):
        """Call ``k.burn`` once from a process body; returns the outcome.

        The body first burns one cycle, which lets the start-up dispatch
        events drain, so the call happens at time 1 with the quantum one
        cycle short.  *setup* then runs inside the body
        (``setup(k, proc)``), *target* picks the process passed to burn
        (default: the stepping one) and *others* spawns that many
        short bystanders, which wait in the run queue while the burner
        holds the only CPU.
        """
        seen = {}

        def body(proc):
            yield CpuBurst(1)
            if setup is not None:
                setup(k, proc)
            victim = proc if target is None else target(k, proc)
            seen["before"] = burn_snapshot(k, proc)
            seen["burned"] = k.burn(victim, cycles)
            seen["after"] = burn_snapshot(k, proc)
            if not seen["burned"]:
                yield CpuBurst(cycles)

        def bystander(proc):
            yield CpuBurst(10)

        burner = k.spawn(body, "burner")
        procs = [burner] + [k.spawn(bystander, f"other{i}")
                            for i in range(others)]
        run(k, procs)
        return seen

    def assert_refused(self, seen):
        assert seen["burned"] is False
        assert seen["after"] == seen["before"]

    def test_refuses_when_a_queued_event_is_earlier_or_tied(self):
        for cycles, burned in ((49, True), (50, False), (51, False)):
            k = make_kernel()
            k.engine.schedule_at(51, lambda: None)
            seen = self.burn_in(k, cycles)
            if burned:
                assert seen["burned"] is True
            else:
                self.assert_refused(seen)

    def test_refuses_when_an_observer_tick_comes_first(self):
        for cycles, burned in ((28, True), (29, False)):
            k = make_kernel()
            k.engine.observe(30, lambda ticks: None)
            seen = self.burn_in(k, cycles)
            if burned:
                assert seen["burned"] is True
            else:
                self.assert_refused(seen)

    def test_refuses_when_halted_or_out_of_budget(self):
        k = make_kernel()
        self.assert_refused(self.burn_in(
            k, 10, setup=lambda k, proc: k.engine.halt(),
            run=lambda k, procs: k.run()))
        k = make_kernel()
        # The dispatch and the first burst use up the budget.
        self.assert_refused(self.burn_in(
            k, 10, run=lambda k, procs: k.run(max_events=2)))

    def test_refuses_at_a_user_boundary_with_a_deferred_preemption(self):
        def pending(k, proc):
            proc.preempt_pending = True

        k = make_kernel()
        seen = self.burn_in(k, 10, setup=pending, others=1)
        self.assert_refused(seen)
        assert k.processes[0].preemptions == 1

        # In kernel mode the preemption stays deferred.
        def pending_in_kernel(k, proc):
            proc.preempt_pending = True
            proc.in_kernel += 1

        k = make_kernel()
        assert self.burn_in(k, 10, setup=pending_in_kernel,
                            others=1)["burned"] is True

    def test_refuses_a_burst_beyond_the_quantum(self):
        k = make_kernel(quantum=1000)
        self.assert_refused(self.burn_in(k, 1000))
        # Exactly the rest of the quantum with nobody waiting: a fresh
        # quantum.
        k = make_kernel(quantum=1000)
        seen = self.burn_in(k, 999)
        assert seen["burned"] is True
        assert seen["after"][6] == 1000

    def test_refuses_a_quantum_ending_at_the_burst_with_a_forced_preemption(
            self):
        k = make_kernel(quantum=1000)
        seen = self.burn_in(k, 999, others=1)
        self.assert_refused(seen)
        assert k.processes[0].preemptions == 1

        # In kernel mode on a non-preemptive kernel the CPU is kept and
        # the preemption deferred, exactly as a queued chunk would do.
        def enter_kernel(k, proc):
            proc.in_kernel += 1

        k = make_kernel(quantum=1000)
        seen = self.burn_in(k, 999, setup=enter_kernel, others=1)
        assert seen["burned"] is True
        assert seen["after"][7] is True  # preempt_pending
        k = make_kernel(quantum=1000, kernel_preemption=True)
        self.assert_refused(self.burn_in(k, 999, setup=enter_kernel,
                                         others=1))

    def test_refuses_a_process_that_is_not_stepping(self):
        k = make_kernel(num_cpus=2)
        seen = self.burn_in(k, 10, target=lambda k, proc: k.processes[1],
                            others=1)
        assert seen["burned"] is False
        k = make_kernel()
        proc = k.spawn(lambda p: iter(()), "idle")
        assert k.burn(proc, 10) is False
        assert proc.cpu_time == 0 and k.engine.events_processed == 0

    def test_accounts_like_a_queued_chunk(self):
        def run(engine_cls):
            k = make_kernel(engine=engine_cls(), quantum=600)
            outcomes = []

            def body(proc):
                for cycles, in_kernel in ((300, 1), (200, 0), (100, 1),
                                          (450, 0)):
                    proc.in_kernel += in_kernel
                    burned = k.burn(proc, cycles)
                    outcomes.append(burned)
                    if not burned:
                        yield CpuBurst(cycles)
                    proc.in_kernel -= in_kernel

            procs = [k.spawn(body, "a"), k.spawn(body, "b")]
            k.run_until_done(procs)
            return kernel_state(k), outcomes

        reference, refused = run(HeapOnlyEngine)
        inline, outcomes = run(Engine)
        assert inline == reference
        # "a" runs first: its first burst waits behind the dispatch
        # event still queued for "b".  The third burst of each ends its
        # quantum in kernel mode with the other waiting, and the fourth
        # then takes the deferred preemption.
        assert outcomes == [False, True, True, False, True, True, True,
                            False]
        assert not any(refused)
        for proc in inline["processes"]:
            assert proc[3:5] == (400, 650)   # sys_time, user_time
            assert proc[6] == 1              # preemptions
        assert inline["cpus"][0][0] == 2 * 1050

    def test_empty_burst_is_done_without_an_event(self):
        k = make_kernel()
        seen = self.burn_in(k, 0)
        assert seen["burned"] is True
        assert seen["after"] == seen["before"]
        k = make_kernel()
        proc = k.spawn(lambda p: iter(()), "idle")
        assert k.burn(proc, 0.0) is True

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_bad_cycles_raise(self, bad):
        k = make_kernel()
        proc = k.spawn(lambda p: iter(()), "idle")
        with pytest.raises(ValueError, match="finite and non-negative"):
            k.burn(proc, bad)
