"""Tests for effect objects and Process bookkeeping."""

import math

import pytest

from repro.sim.process import (Condition, CpuBurst, Process, ProcessState,
                               Sleep, Spawn, WaitCondition, YieldCpu)
from repro.sim.scheduler import Kernel


class TestEffectValidation:
    def test_negative_burst_rejected(self):
        with pytest.raises(ValueError):
            CpuBurst(-1)

    def test_negative_sleep_rejected(self):
        with pytest.raises(ValueError):
            Sleep(-1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("effect", [CpuBurst, Sleep])
    def test_non_finite_cycles_rejected(self, effect, bad):
        with pytest.raises(ValueError, match="finite"):
            effect(bad)

    def test_reprs(self):
        assert "CpuBurst" in repr(CpuBurst(100))
        assert "Sleep" in repr(Sleep(5))
        assert "YieldCpu" in repr(YieldCpu())
        assert "Spawn" in repr(Spawn(None, "child"))
        cond = Condition("c")
        assert "c" in repr(cond)
        assert "WaitCondition" in repr(WaitCondition(cond))


class TestProcessBookkeeping:
    def test_default_name(self):
        proc = Process(7, "", None)
        assert proc.name == "proc7"

    def test_repr_shows_state(self):
        proc = Process(1, "worker", None)
        assert "runnable" in repr(proc)
        proc.state = ProcessState.DONE
        assert proc.done

    def test_started_and_finished_timestamps(self):
        k = Kernel(num_cpus=1, tsc_skew_seconds=0.0)

        def body(proc):
            yield CpuBurst(1000)
            return None

        k.engine.schedule(500, lambda: None)
        k.run(max_events=1)
        p = k.spawn(body, "p")
        assert p.started_at == 500
        k.run_until_done([p])
        assert p.finished_at == pytest.approx(1500)

    def test_voluntary_switch_counted(self):
        k = Kernel(num_cpus=1, context_switch_cost=0.0,
                   tsc_skew_seconds=0.0)

        def body(proc):
            yield CpuBurst(10)
            yield YieldCpu()
            yield CpuBurst(10)

        a = k.spawn(body, "a")
        b = k.spawn(body, "b")
        k.run_until_done([a, b])
        assert a.voluntary_switches == 1
        assert b.voluntary_switches == 1


class TestConditionSemantics:
    def test_fire_empty_condition_is_noop(self):
        k = Kernel(num_cpus=1, tsc_skew_seconds=0.0)
        cond = Condition("empty")
        assert k.fire_condition(cond) == 0

    def test_fire_delivers_value_to_each_waiter(self):
        k = Kernel(num_cpus=2, tsc_skew_seconds=0.0)
        cond = Condition("c")
        got = []

        def waiter(proc):
            value = yield WaitCondition(cond)
            got.append(value)

        procs = [k.spawn(waiter, f"w{i}") for i in range(2)]
        k.run(max_events=50)
        k.fire_condition(cond, value="payload", wake_all=True)
        k.run_until_done(procs)
        assert got == ["payload", "payload"]

    def test_wake_one_order_is_fifo(self):
        k = Kernel(num_cpus=1, tsc_skew_seconds=0.0,
                   context_switch_cost=0.0)
        cond = Condition("c")
        order = []

        def waiter(proc):
            yield WaitCondition(cond)
            order.append(proc.name)

        procs = [k.spawn(waiter, f"w{i}") for i in range(3)]
        k.run(max_events=100)
        for _ in range(3):
            k.fire_condition(cond, wake_all=False)
            k.run(max_events=100)
        assert order == ["w0", "w1", "w2"]
