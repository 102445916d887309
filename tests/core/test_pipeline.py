"""Unit tests for the probe/event pipeline (contexts, sinks, batching)."""

from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.pipeline import (EventSink, NullSink, Pipeline, ProbePoint,
                                 ProfileSink, RequestContext, SamplingSink,
                                 TokenFinishedError, TraceSink, wire_probe)
from repro.core.profile import Layer
from repro.core.profiler import Profiler
from repro.core.profileset import ProfileSet
from repro.core.sampling import SampledProfiler

from ..clock import FakeClock


def fake_proc():
    return SimpleNamespace(request_context=None)


class TestRequestContext:
    def test_child_shares_request_id(self):
        root = RequestContext(7, "read", Layer.USER)
        child = root.child("readpage", Layer.FILESYSTEM)
        assert child.request_id == 7
        assert child.parent is root
        assert child.depth == 1

    def test_path_is_outermost_first(self):
        root = RequestContext(1, "read", Layer.USER)
        leaf = root.child("read", Layer.FILESYSTEM).child(
            "disk_read", Layer.DRIVER)
        assert leaf.path == ((Layer.USER, "read"),
                             (Layer.FILESYSTEM, "read"),
                             (Layer.DRIVER, "disk_read"))

class TestProbePoint:
    def test_enter_exit_records_latency(self):
        clock = FakeClock()
        pipeline = Pipeline()
        pset = ProfileSet(name="t")
        probe = pipeline.probe(Layer.USER, ProfileSink(pset), clock=clock)
        token = probe.enter("read")
        clock.now = 100.0
        latency = probe.exit(token)
        assert latency == 100.0
        pipeline.flush()
        assert pset.profile("read", Layer.USER).total_ops == 1
        assert pset.profile("read", Layer.USER).total_latency == 100.0

    def test_exit_twice_raises_token_finished(self):
        pipeline = Pipeline()
        probe = pipeline.probe(Layer.USER, ProfileSink(ProfileSet()),
                               clock=FakeClock())
        token = probe.enter("read")
        probe.exit(token)
        with pytest.raises(TokenFinishedError):
            probe.exit(token)

    def test_clock_rollback_clamps_to_bucket_zero(self):
        # Cross-CPU TSC skew can make exit read an earlier timestamp
        # than entry; the sample must land in bucket 0, not corrupt the
        # histogram with a negative latency.
        clock = FakeClock(now=1000.0)
        pipeline = Pipeline()
        pset = ProfileSet(name="t")
        probe = pipeline.probe(Layer.USER, ProfileSink(pset), clock=clock)
        token = probe.enter("read")
        clock.now = 400.0
        assert probe.exit(token) == 0.0
        pipeline.flush()
        assert pset.profile("read", Layer.USER).counts() == {0: 1}

    def test_nullsink_only_probe_is_inactive(self):
        pipeline = Pipeline()
        probe = pipeline.probe(Layer.USER, NullSink())
        assert not probe.active
        probe.record("read", 50.0)
        assert pipeline.pending_events() == 0

    def test_events_buffer_until_flush(self):
        pipeline = Pipeline()
        pset = ProfileSet(name="t")
        probe = pipeline.probe(Layer.USER, ProfileSink(pset))
        probe.record("read", 10.0)
        probe.record("read", 20.0)
        assert pipeline.pending_events() == 2
        assert pset.total_ops() == 0
        pipeline.flush()
        assert pipeline.pending_events() == 0
        assert pset.total_ops() == 2

    def test_batch_size_triggers_auto_drain(self):
        pipeline = Pipeline(batch_size=4)
        pset = ProfileSet(name="t")
        probe = pipeline.probe(Layer.USER, ProfileSink(pset))
        for _ in range(4):
            probe.record("read", 8.0)
        assert pipeline.pending_events() == 0
        assert pset.total_ops() == 4

    def test_push_context_roots_then_nests(self):
        pipeline = Pipeline()
        user = pipeline.probe(Layer.USER, ProfileSink(ProfileSet()))
        fs = pipeline.probe(Layer.FILESYSTEM, ProfileSink(ProfileSet()))
        proc = fake_proc()
        root = user.push_context(proc, "read")
        assert proc.request_context is root
        assert root.parent is None
        nested = fs.push_context(proc, "readpage")
        assert nested.parent is root
        assert nested.request_id == root.request_id
        ProbePoint.pop_context(proc, nested)
        assert proc.request_context is root
        ProbePoint.pop_context(proc, root)
        assert proc.request_context is None

    def test_fresh_roots_get_distinct_request_ids(self):
        pipeline = Pipeline()
        probe = pipeline.probe(Layer.USER, ProfileSink(ProfileSet()))
        proc = fake_proc()
        first = probe.push_context(proc, "read")
        ProbePoint.pop_context(proc, first)
        second = probe.push_context(proc, "read")
        assert second.request_id != first.request_id


class TestProfilerTokens:
    """Profiler tokens are probe tokens: double finish, clock rollback."""

    def test_double_finish_raises_token_finished_error(self):
        profiler = Profiler(clock=FakeClock())
        token = profiler.begin("read")
        profiler.end(token)
        with pytest.raises(TokenFinishedError,
                           match="finished twice"):
            profiler.end(token)

    def test_token_finished_error_is_a_runtime_error(self):
        # Pre-pipeline callers caught RuntimeError; keep that contract.
        assert issubclass(TokenFinishedError, RuntimeError)

    def test_finish_after_clock_rollback_lands_in_bucket_zero(self):
        clock = FakeClock(now=5000.0)
        profiler = Profiler(clock=clock)
        token = profiler.begin("read")
        clock.now = 100.0
        assert profiler.end(token) == 0.0
        assert profiler.profile_set().profile(
            "read", profiler.layer).counts() == {0: 1}


class TestWireProbe:
    def test_profile_set_read_flushes_pipeline(self):
        pipeline = Pipeline()
        profiler = Profiler(name="t", clock=FakeClock())
        probe = wire_probe(pipeline, Layer.USER, profiler=profiler)
        probe.record("read", 12.0)
        # No explicit flush: reading results must drain the buffers.
        assert profiler.profile_set().total_ops() == 1

    def test_reset_keeps_sink_targeting_current_set(self):
        pipeline = Pipeline()
        profiler = Profiler(name="t", clock=FakeClock())
        probe = wire_probe(pipeline, Layer.USER, profiler=profiler)
        probe.record("read", 12.0)
        profiler.reset()
        assert profiler.profile_set().total_ops() == 0
        probe.record("read", 30.0)
        assert profiler.profile_set().total_ops() == 1

    def test_disabled_profiler_drops_drains_but_global_sink_sees_all(self):
        # The disabled profiler's ProfileSink drops its drain; a global
        # sink on the same probe still receives every event.
        pipeline = Pipeline()
        trace = TraceSink()
        pipeline.add_global_sink(trace)
        profiler = Profiler(name="t", clock=FakeClock())
        probe = wire_probe(pipeline, Layer.USER, profiler=profiler)
        probe.record("read", 12.0)
        profiler.enabled = False
        probe.record("read", 30.0)
        assert profiler.profile_set().total_ops() == 1
        assert len(trace.events) == 2

    def test_sampled_series_read_flushes_pipeline(self):
        clock = FakeClock()
        pipeline = Pipeline()
        sampled = SampledProfiler(clock=clock, interval=100.0, name="t")
        probe = wire_probe(pipeline, Layer.FILESYSTEM, sampled=sampled)
        probe.record("read", 5.0, start=250.0)
        series = sampled.series()
        assert len(series) == 3
        assert series[2].total_ops() == 1

    def test_no_targets_wires_nullsink(self):
        probe = wire_probe(Pipeline(), Layer.USER)
        assert not probe.active
        assert any(isinstance(s, NullSink) for s in probe.sinks)

    @given(st.lists(st.floats(min_value=0, max_value=1e12),
                    min_size=1, max_size=300))
    def test_batched_profile_bytes_match_per_sample_path(self, latencies):
        # The batching invariant: deferring histogram insertion through
        # the pipeline's batch buffers must not move a single bit of the
        # canonical encoding relative to the per-sample path.  Profiler
        # records through a probe itself, so the per-sample reference is
        # spelled out here: one clamped ProfileSet.add per sample.
        per_sample = ProfileSet(name="x")
        pipeline = Pipeline(batch_size=16)
        batched = Profiler(name="x", layer=Layer.USER, clock=FakeClock())
        probe = wire_probe(pipeline, Layer.USER, profiler=batched)
        for i, latency in enumerate(latencies):
            per_sample.add(f"op{i % 3}", max(latency, 0.0), layer=Layer.USER)
            probe.record(f"op{i % 3}", latency)
        assert batched.profile_set().to_bytes() == per_sample.to_bytes()


class TestSamplingSink:
    def test_attributes_sample_to_start_segment(self):
        clock = FakeClock()
        sampled = SampledProfiler(clock=clock, interval=100.0, name="t")
        pipeline = Pipeline()
        probe = pipeline.probe(Layer.FILESYSTEM, SamplingSink(sampled))
        # Started in segment 0, finished well into segment 3: the
        # bucket set active at entry time receives the sample.
        probe.record("read", 310.0, start=40.0)
        pipeline.flush()
        series = sampled.series()
        assert series[0].total_ops() == 1

    def test_batched_segments_byte_match_direct_recording(self):
        # Event-order determinism: draining events through the
        # pipeline's batch buffers must leave every segment
        # byte-identical to recording the same (start, latency) stream
        # straight into a SampledProfiler.
        clock = FakeClock()
        direct = SampledProfiler(clock=clock, interval=100.0, name="x")
        batched = SampledProfiler(clock=clock, interval=100.0, name="x")
        pipeline = Pipeline(batch_size=8)
        probe = pipeline.probe(Layer.FILESYSTEM, SamplingSink(batched))
        stream = [(f"op{i % 3}", float((i * 37) % 500), float(i % 90))
                  for i in range(50)]
        for op, start, latency in stream:
            direct.record(op, start, latency)
            probe.record(op, latency, start=start)
        clock.now = 500.0
        pipeline.flush()
        left, right = direct.series(), batched.series()
        assert len(left) == len(right)
        assert [seg.to_bytes() for seg in left.segments] == \
            [seg.to_bytes() for seg in right.segments]
        assert left.tail_fraction == right.tail_fraction


class TestTraceAndFanout:
    def test_trace_groups_events_per_request(self):
        pipeline = Pipeline()
        trace = TraceSink()
        pipeline.add_global_sink(trace)
        user = pipeline.probe(Layer.USER)
        fs = pipeline.probe(Layer.FILESYSTEM)
        proc = fake_proc()
        root = user.push_context(proc, "read")
        nested = fs.push_context(proc, "readpage")
        fs.record("readpage", 40.0, start=5.0, context=nested)
        ProbePoint.pop_context(proc, nested)
        user.record("read", 100.0, start=0.0, context=root)
        ProbePoint.pop_context(proc, root)
        pipeline.flush()
        requests = trace.requests()
        assert list(requests) == [root.request_id]
        events = requests[root.request_id]
        # Entry-ordered: the outer request first despite post-order emit.
        assert [(e.layer, e.operation, e.depth) for e in events] == [
            (Layer.USER, "read", 0), (Layer.FILESYSTEM, "readpage", 1)]

    def test_global_sink_sees_events_recorded_after_attach(self):
        # Every wiring buffers the same way: a trace attached mid-run
        # sees exactly the events recorded after it, whether the probe
        # feeds one ProfileSink or a ProfileSink and a SamplingSink.
        pipeline = Pipeline()
        pset = ProfileSet(name="t")
        sampled = SampledProfiler(clock=FakeClock(), interval=100.0,
                                  name="t")
        plain = pipeline.probe(Layer.USER, ProfileSink(pset))
        sampling = pipeline.probe(Layer.FILESYSTEM, ProfileSink(pset),
                                  SamplingSink(sampled))
        for probe in (plain, sampling):
            for _ in range(3):
                probe.record("read", 8.0)
        trace = TraceSink()
        pipeline.add_global_sink(trace)
        for probe in (plain, sampling):
            for _ in range(2):
                probe.record("read", 8.0)
        pipeline.flush()
        layers = [event.layer for event in trace.events]
        assert layers.count(Layer.USER) == 2
        assert layers.count(Layer.FILESYSTEM) == 2
        assert pset.total_ops() == 10

    def test_global_sink_activates_nullsink_probes(self):
        pipeline = Pipeline()
        probe = pipeline.probe(Layer.USER, NullSink())
        assert not probe.active
        pipeline.add_global_sink(TraceSink())
        assert probe.active

    def test_trace_limit_counts_drops(self):
        pipeline = Pipeline()
        trace = TraceSink(limit=2)
        probe = pipeline.probe(Layer.USER, trace)
        for _ in range(5):
            probe.record("read", 1.0)
        pipeline.flush()
        assert len(trace.events) == 2
        assert trace.dropped == 3

    def test_trace_limit_keeps_whole_requests_lowest_ids_first(self):
        # Probes drain one after the other, so the file-system halves
        # of requests 1-4 arrive before any user half.  A first-come
        # cap would keep all four requests half-traced.
        pipeline = Pipeline()
        trace = TraceSink(limit=5)
        pipeline.add_global_sink(trace)
        fs = pipeline.probe(Layer.FILESYSTEM)
        user = pipeline.probe(Layer.USER)
        roots = [pipeline.new_context("read") for _ in range(4)]
        for root in roots:
            fs.record("read", 40.0, context=root.child("read",
                                                        Layer.FILESYSTEM))
            user.record("read", 90.0, context=root)
        pipeline.flush()
        requests = trace.requests()
        assert sorted(requests) == [roots[0].request_id,
                                    roots[1].request_id]
        assert all(len(events) == 2 for events in requests.values())
        assert len(trace.events) == 4
        assert trace.dropped == 4


class RaisingSink(EventSink):
    """A consumer that always fails (a dead service connection, say)."""

    def consume(self, layer, events):
        raise ConnectionError("downstream is gone")


class TestRaisingSink:
    """A sink that raises fails the capture loudly, never silently."""

    def test_raises_out_of_record_when_each_event_drains(self):
        pipeline = Pipeline(batch_size=1)
        probe = pipeline.probe(Layer.FILESYSTEM, RaisingSink())
        with pytest.raises(ConnectionError, match="downstream is gone"):
            probe.record("read", 9.0)

    def test_raises_out_of_flush_and_spares_other_probes(self):
        pipeline = Pipeline()
        pset = ProfileSet(name="t")
        broken = pipeline.probe(Layer.FILESYSTEM, RaisingSink())
        healthy = pipeline.probe(Layer.USER, ProfileSink(pset))
        for _ in range(3):
            broken.record("read", 9.0)
            healthy.record("read", 9.0)
        with pytest.raises(ConnectionError):
            pipeline.flush()
        # The failed batch is gone; the other probe's events are not.
        pipeline.flush()
        assert pset.profile("read", Layer.USER).total_ops == 3


class TestPipelineValidation:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            Pipeline(batch_size=0)

    def test_flush_drains_every_probe(self):
        pipeline = Pipeline()
        user, fs = ProfileSet(name="u"), ProfileSet(name="f")
        user_probe = pipeline.probe(Layer.USER, ProfileSink(user))
        fs_probe = pipeline.probe(Layer.FILESYSTEM, ProfileSink(fs))
        user_probe.record("read", 4.0)
        fs_probe.record("readpage", 6.0)
        fs_probe.record("readpage", 9.0)
        assert pipeline.pending_events() == 3
        pipeline.flush()
        assert pipeline.pending_events() == 0
        assert user.profile("read", Layer.USER).total_ops == 1
        assert fs.profile("readpage", Layer.FILESYSTEM).total_ops == 2
