"""Tests for the Detours-style runtime interceptor."""

import pytest

from repro.core.detours import InterceptionError, Interceptor

from ..clock import FakeClock


class Workload:
    """A 'closed-source' object to be profiled without modification."""

    def __init__(self):
        self.reads = 0

    def read(self, n):
        self.reads += 1
        return b"x" * n

    def write(self, data):
        return len(data)

    value = 42  # not callable


class TestAttach:
    def test_intercepted_calls_are_profiled(self):
        clock = FakeClock()
        target = Workload()
        interceptor = Interceptor(clock=clock)
        interceptor.attach(target, ["read", "write"])
        target.read(10)
        target.read(20)
        target.write(b"abc")
        pset = interceptor.profile_set()
        assert pset["read"].total_ops == 2
        assert pset["write"].total_ops == 1

    def test_behaviour_preserved(self):
        target = Workload()
        with Interceptor(clock=FakeClock()) as interceptor:
            interceptor.attach(target, ["read"])
            assert target.read(5) == b"xxxxx"
            assert target.reads == 1

    def test_prefix_names_operations(self):
        target = Workload()
        interceptor = Interceptor(clock=FakeClock())
        interceptor.attach(target, ["read"], prefix="smb_")
        target.read(1)
        assert "smb_read" in interceptor.profile_set()

    def test_missing_attribute_rejected(self):
        interceptor = Interceptor(clock=FakeClock())
        with pytest.raises(InterceptionError):
            interceptor.attach(Workload(), ["nonexistent"])

    def test_non_callable_rejected(self):
        interceptor = Interceptor(clock=FakeClock())
        with pytest.raises(InterceptionError):
            interceptor.attach(Workload(), ["value"])

    def test_double_attach_is_noop(self):
        target = Workload()
        interceptor = Interceptor(clock=FakeClock())
        first = interceptor.attach(target, ["read"])
        second = interceptor.attach(target, ["read"])
        assert first == ["read"]
        assert second == []
        target.read(1)
        assert interceptor.profile_set()["read"].total_ops == 1

    def test_module_level_interception(self):
        import math
        interceptor = Interceptor(clock=FakeClock())
        try:
            interceptor.attach(math, ["sqrt"])
            assert math.sqrt(4) == 2.0
            assert interceptor.profile_set()["sqrt"].total_ops == 1
        finally:
            interceptor.detach_all()
        assert not hasattr(math.sqrt, "_detours_original")


class TestDetach:
    def test_detach_restores_original(self):
        target = Workload()
        interceptor = Interceptor(clock=FakeClock())
        interceptor.attach(target, ["read"])
        assert interceptor.detach(target, "read")
        target.read(1)
        assert interceptor.profile_set().total_ops() == 0

    def test_detach_unattached_returns_false(self):
        interceptor = Interceptor(clock=FakeClock())
        assert not interceptor.detach(Workload(), "read")

    def test_detach_all_counts(self):
        target = Workload()
        interceptor = Interceptor(clock=FakeClock())
        interceptor.attach(target, ["read", "write"])
        assert interceptor.detach_all() == 2
        assert interceptor.attached() == []

    def test_context_manager_detaches(self):
        target = Workload()
        with Interceptor(clock=FakeClock()) as interceptor:
            interceptor.attach(target, ["read"])
            assert interceptor.attached() == ["read"]
        target.read(1)
        assert interceptor.profile_set().total_ops() == 0

    def test_exception_in_target_still_profiled(self):
        class Boomy:
            def go(self):
                raise RuntimeError("boom")

        target = Boomy()
        interceptor = Interceptor(clock=FakeClock())
        interceptor.attach(target, ["go"])
        with pytest.raises(RuntimeError):
            target.go()
        assert interceptor.profile_set()["go"].total_ops == 1

    def test_reset(self):
        target = Workload()
        interceptor = Interceptor(clock=FakeClock())
        interceptor.attach(target, ["read"])
        target.read(1)
        interceptor.reset()
        assert interceptor.profile_set().total_ops() == 0
