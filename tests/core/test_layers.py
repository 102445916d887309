"""Tests for layered profiling helpers."""

import pytest

from repro.core.layers import LayerStack, isolate_layer
from repro.core.profile import Profile

from ..clock import FakeClock


class TestLayerStack:
    def test_requires_layers(self):
        with pytest.raises(ValueError):
            LayerStack([], clock=FakeClock())

    def test_unique_layers_required(self):
        with pytest.raises(ValueError):
            LayerStack(["user", "user"], clock=FakeClock())

    def test_ordering_helpers(self):
        stack = LayerStack(["user", "fs", "driver"], clock=FakeClock())
        assert stack.above("fs") == "user"
        assert stack.below("fs") == "driver"
        assert stack.above("user") is None
        assert stack.below("driver") is None

    def test_each_layer_gets_own_profiler(self):
        clock = FakeClock()
        stack = LayerStack(["user", "fs"], clock=clock)
        with stack.profiler("user").request("read"):
            clock.now += 100
        assert stack.profiler("user").profile_set().total_ops() == 1
        assert stack.profiler("fs").profile_set().total_ops() == 0

    def test_profile_sets_keyed_by_layer(self):
        stack = LayerStack(["user", "fs"], clock=FakeClock())
        sets = stack.profile_sets()
        assert set(sets) == {"user", "fs"}


class TestIsolateLayer:
    def test_own_latency_and_fanout(self):
        # User layer saw 10 ops of 1000 cycles; FS layer saw 20 ops of
        # 400 cycles (VFS fan-out 2x).  Own latency = 1000 - 800 = 200.
        outer = Profile.from_latencies("read", [1000] * 10)
        inner = Profile.from_latencies("read", [400] * 20)
        result = isolate_layer(outer, inner)
        assert result["fanout"] == pytest.approx(2.0)
        assert result["own_latency"] == pytest.approx(200.0)
        assert result["inner_share"] == pytest.approx(0.8)

    def test_empty_outer_rejected(self):
        with pytest.raises(ValueError):
            isolate_layer(Profile("read"), Profile("read"))
