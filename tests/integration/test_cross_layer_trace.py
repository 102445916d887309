"""Cross-layer request tracing through the shared pipeline.

A global :class:`TraceSink` on a built system must see single requests
slicing through multiple instrumented layers — the same request id on
the syscall-layer event and the nested file-system (and, for cache
misses, driver) events.
"""

from repro.core.pipeline import TraceSink
from repro.core.profile import Layer
from repro.system import System
from repro.workloads.randomread import RandomReadConfig, run_random_read


def traced_system():
    system = System.build(fs_type="ext2", seed=2006, with_timer=False)
    trace = TraceSink()
    system.pipeline.add_global_sink(trace)
    return system, trace


class TestCrossLayerTrace:
    def test_requests_slice_through_layers(self):
        system, trace = traced_system()
        run_random_read(system, RandomReadConfig(processes=1,
                                                 iterations=50))
        system.pipeline.flush()
        requests = trace.requests()
        assert requests
        multi = {rid: events for rid, events in requests.items()
                 if len({e.layer for e in events}) >= 2}
        assert multi, "no request crossed two instrumented layers"
        # Every multi-layer request roots at the syscall layer, and the
        # outermost event always sorts first (depth 0).
        for events in multi.values():
            assert events[0].depth == 0
            assert events[0].layer == Layer.USER

    def test_cache_misses_reach_the_driver(self):
        system, trace = traced_system()
        run_random_read(system, RandomReadConfig(processes=2,
                                                 iterations=200))
        system.pipeline.flush()
        driver_rids = {e.request_id for events in
                       trace.requests().values() for e in events
                       if e.layer == Layer.DRIVER}
        assert driver_rids, "no disk I/O was attributed to a request"
        # Each driver event's request also has the user-level root.
        requests = trace.requests()
        for rid in driver_rids:
            layers = {e.layer for e in requests[rid]}
            assert Layer.USER in layers
            assert Layer.FILESYSTEM in layers

    def test_tracing_does_not_change_profiles(self):
        # The global sink observes the same event stream the profile
        # sinks consume; attaching it must not move a byte of output.
        plain = System.build(fs_type="ext2", seed=2006, with_timer=False)
        run_random_read(plain, RandomReadConfig(processes=1,
                                                iterations=50))
        baseline = plain.fs_profiles().to_bytes()

        system, _trace = traced_system()
        run_random_read(system, RandomReadConfig(processes=1,
                                                 iterations=50))
        assert system.fs_profiles().to_bytes() == baseline
