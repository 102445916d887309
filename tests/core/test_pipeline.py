"""Unit tests for the probe/event pipeline (contexts, sinks, batching)."""

import math
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.buckets import BucketSpec
from repro.core.correlation import PeakRange, ValueCorrelator
from repro.core.pipeline import (CorrelationSink, FanoutSink, NullSink,
                                 Pipeline, ProbePoint, ProfileSink,
                                 RequestContext, SamplingSink, StreamSink,
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

    def test_annotations_resolve_up_the_parent_chain(self):
        root = RequestContext(1, "readdir", Layer.USER)
        root.annotate("past_eof", 1)
        child = root.child("readdir", Layer.FILESYSTEM)
        assert child.value("past_eof") == 1
        assert child.value("missing", default=-1) == -1
        child.annotate("past_eof", 0)
        assert child.value("past_eof") == 0
        assert root.value("past_eof") == 1


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

    def test_fanout_isolates_a_failing_sampling_sink(self):
        # Fault injection: a pre-epoch event makes the SamplingSink's
        # consume() raise.  Under a FanoutSink the failure is counted
        # and the neighboring profile sink still sees every event.
        clock = FakeClock(now=1000.0)
        sampled = SampledProfiler(clock=clock, interval=100.0, name="t")
        pset = ProfileSet(name="t")
        fan = FanoutSink([SamplingSink(sampled), ProfileSink(pset)])
        pipeline = Pipeline()
        probe = pipeline.probe(Layer.FILESYSTEM, fan)
        probe.record("read", 10.0, start=500.0)   # pre-epoch: raises
        probe.record("read", 20.0, start=1500.0)  # fine
        pipeline.flush()
        assert pset.total_ops() == 2
        assert fan.sink_errors == [1, 0]
        assert isinstance(fan.last_errors[0], ValueError)
        assert fan.degraded()

    def test_fanout_survives_sampling_neighbor_raising(self):
        # The converse: the sampler keeps sampling when its neighbor
        # (a dead stream connection, say) throws on every batch.
        clock = FakeClock()
        sampled = SampledProfiler(clock=clock, interval=100.0, name="t")
        fan = FanoutSink([RaisingSink(), SamplingSink(sampled)])
        pipeline = Pipeline()
        probe = pipeline.probe(Layer.FILESYSTEM, fan)
        for i in range(4):
            probe.record("read", 5.0, start=float(i * 60))
        pipeline.flush()
        assert sampled.series().collapse().total_ops() == 4
        assert fan.sink_errors[0] > 0
        assert fan.sink_errors[1] == 0


class TestCorrelationSink:
    def _correlator(self):
        return ValueCorrelator([PeakRange("first", 0, 10)],
                               value_scale=1024.0)

    def test_correlates_context_annotated_values(self):
        correlator = self._correlator()
        pipeline = Pipeline()
        probe = pipeline.probe(
            Layer.FILESYSTEM,
            CorrelationSink(correlator, key="past_eof"))
        ctx = pipeline.new_context("readdir", Layer.FILESYSTEM)
        ctx.annotate("past_eof", 1)
        probe.record("readdir", 100.0, context=ctx)
        pipeline.flush()
        assert sum(correlator.histogram("first").counts().values()) == 1

    def test_operation_filter_and_missing_annotations_skip(self):
        correlator = self._correlator()
        pipeline = Pipeline()
        probe = pipeline.probe(
            Layer.FILESYSTEM,
            CorrelationSink(correlator, key="past_eof",
                            operation="readdir"))
        annotated = pipeline.new_context("readdir", Layer.FILESYSTEM)
        annotated.annotate("past_eof", 1)
        bare = pipeline.new_context("readdir", Layer.FILESYSTEM)
        probe.record("read", 50.0, context=annotated)   # wrong op
        probe.record("readdir", 50.0, context=bare)     # no annotation
        probe.record("readdir", 50.0, context=None)     # no context
        probe.record("readdir", 50.0, context=annotated)
        pipeline.flush()
        total = sum(sum(h.values())
                    for h in correlator.summary().values())
        assert total == 1

    def test_record_batch_matches_per_pair_record(self):
        batched = self._correlator()
        loop = self._correlator()
        pairs = [(float(2 ** (i % 14)), float(i % 2)) for i in range(40)]
        batched.record_batch(pairs)
        for latency, value in pairs:
            loop.record(latency, value)
        assert batched.summary() == loop.summary()


class TestStreamSink:
    def test_pushes_in_batches_and_flushes_remainder(self):
        pushed = []
        pipeline = Pipeline(batch_size=10)
        sink = StreamSink(pushed.append, batch_ops=10)
        probe = pipeline.probe(Layer.FILESYSTEM, sink)
        for i in range(25):
            probe.record("read", float(i + 1))
        pipeline.flush(final=True)
        assert sink.pushes == 3
        assert [p.total_ops() for p in pushed] == [10, 10, 5]
        assert sink.ops_streamed == 25

    def test_no_empty_final_push(self):
        pushed = []
        pipeline = Pipeline()
        sink = StreamSink(pushed.append, batch_ops=5)
        probe = pipeline.probe(Layer.FILESYSTEM, sink)
        for _ in range(5):
            probe.record("read", 3.0)
        pipeline.flush(final=True)
        assert sink.pushes == 1
        assert len(pushed) == 1

    def test_accepts_client_objects_with_push_method(self):
        class FakeClient:
            def __init__(self):
                self.sets = []

            def push(self, pset):
                self.sets.append(pset)
                return "ok"

        client = FakeClient()
        pipeline = Pipeline()
        sink = StreamSink(client, batch_ops=2)
        probe = pipeline.probe(Layer.FILESYSTEM, sink)
        probe.record("read", 1.0)
        probe.record("read", 2.0)
        pipeline.flush()
        assert len(client.sets) == 1

    def test_rejects_nonpositive_batch(self):
        with pytest.raises(ValueError):
            StreamSink(lambda pset: None, batch_ops=0)


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

    def test_fanout_delivers_and_flushes_all(self):
        pset = ProfileSet(name="t")
        pushed = []
        fan = FanoutSink([ProfileSink(pset),
                          StreamSink(pushed.append, batch_ops=100)])
        pipeline = Pipeline()
        probe = pipeline.probe(Layer.USER, fan)
        probe.record("read", 9.0)
        pipeline.flush(final=True)
        assert pset.total_ops() == 1
        assert len(pushed) == 1


class RaisingSink:
    """A consumer that always fails (a dead service connection, say)."""

    def __init__(self):
        self.flushes = 0

    def consume(self, layer, events):
        raise ConnectionError("downstream is gone")

    def flush(self):
        self.flushes += 1
        raise ConnectionError("flush failed too")


class TestFanoutIsolation:
    def test_raising_sink_never_starves_the_others(self):
        pset = ProfileSet(name="t")
        fan = FanoutSink([RaisingSink(), ProfileSink(pset)])
        pipeline = Pipeline()
        probe = pipeline.probe(Layer.USER, fan)
        for _ in range(5):
            probe.record("read", 9.0)
        pipeline.flush(final=True)
        # The healthy sink saw every event despite its broken neighbor.
        assert pset.total_ops() == 5

    def test_failures_are_counted_not_silent(self):
        fan = FanoutSink([RaisingSink(), NullSink()])
        fan.consume(Layer.USER, [object()] * 3)
        fan.consume(Layer.USER, [object()] * 2)
        assert fan.sink_errors == [2, 0]
        assert isinstance(fan.last_errors[0], ConnectionError)
        assert fan.last_errors[1] is None
        assert fan.events_dropped == 5
        assert fan.degraded()

    def test_flush_failures_counted_too(self):
        fan = FanoutSink([RaisingSink()])
        fan.flush()
        assert fan.sink_errors == [1]
        assert fan.degraded()

    def test_healthy_fanout_is_not_degraded(self):
        fan = FanoutSink([NullSink()])
        fan.consume(Layer.USER, [object()])
        fan.flush()
        assert not fan.degraded()
        assert fan.metrics()["osprof_sinks_degraded"] == 0

    def test_metrics_shape(self):
        fan = FanoutSink([RaisingSink(), NullSink()])
        fan.consume(Layer.USER, [object()] * 4)
        assert fan.metrics() == {
            "osprof_sink_errors_total": 1,
            "osprof_sink_events_dropped_total": 4,
            "osprof_sinks_degraded": 1,
        }


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
