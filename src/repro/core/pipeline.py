"""The probe/event pipeline: one capture path for every instrumented layer.

The paper's design (Figure 2, §4) is a single aggregate-stats library
shared by profilers at user, file-system, driver, and network level.
This module is that shared spine for the reproduction: every
instrumented layer emits through a :class:`ProbePoint` into composable
:class:`EventSink` implementations, instead of hand-wiring calls to
``Profiler`` / ``SampledProfiler`` / ``ValueCorrelator`` at each site.

Three ideas compose here:

* **Cross-layer request contexts.**  A :class:`RequestContext` is
  stamped when a request enters the outermost probed layer (the syscall
  boundary) and propagated down the stack — VFS dispatch, file-system
  internals, the SCSI driver's completion path, network RPCs — so every
  event of one logical request carries the same request id and a layer
  path, ReLayTracer-style.  :class:`TraceSink` reassembles per-request
  slices from the stream.

* **A batched hot path.**  ``ProbePoint.record`` appends one flat tuple
  to the probe's own event list — no histogram work, no method-call
  chain.  A probe's list drains into its sinks (and the pipeline's
  global sinks) when it fills or on :meth:`Pipeline.flush`, where
  :class:`ProfileSink` groups events per operation and buckets them
  with :meth:`~repro.core.buckets.LatencyBuckets.add_many`'s
  ``bit_length`` loop.  The deferred path is measurably *faster* per
  sample than the per-sample method chain it replaces
  (``benchmarks/test_perf_micro.py -k record``) and, because bucket
  counts, extrema, and the exact latency expansion are all
  order-independent, produces byte-identical ProfileSets.

* **Composable sinks.**  One event stream feeds any combination of
  complete profiles (:class:`ProfileSink`), time-segmented 3-D profiles
  (:class:`SamplingSink`), value correlation (:class:`CorrelationSink`),
  batched pushes to the continuous-profiling service
  (:class:`StreamSink`), request tracing (:class:`TraceSink`), or
  nothing at all (:class:`NullSink` — the measured-zero "off" variant).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple, Union)

from .buckets import BucketSpec
from .profile import Layer
from .profileset import ProfileSet
from .sampling import SampledProfiler

__all__ = [
    "RequestContext",
    "ProbeToken",
    "ProbePoint",
    "Pipeline",
    "EventSink",
    "NullSink",
    "ProfileSink",
    "SamplingSink",
    "CorrelationSink",
    "StreamSink",
    "TraceSink",
    "TraceEvent",
    "FanoutSink",
    "TokenFinishedError",
    "wire_probe",
]

#: Default number of buffered events per probe before an automatic drain.
#: Every live probe holds up to this many event tuples, so the value is
#: set by memory: in the ``capture`` benchmark (CPython 3.11) peak RSS
#: read 31.9 MB at 8192 per probe, 28.8 MB at 1024 and 27.7 MB at 256,
#: with no measurable change in ops/s between 1024 and 256.
DEFAULT_BATCH_SIZE = 256

#: One buffered event: (operation, start, latency, context).
Event = Tuple[str, float, float, Optional["RequestContext"]]


class TokenFinishedError(RuntimeError):
    """A probe token was finished twice.

    Each token represents exactly one in-flight request; a double finish
    means the instrumentation's entry/exit pairing is broken (the
    C library's equivalent would be a mismatched FSPROF_POST).  Subclass
    of :class:`RuntimeError` for backward compatibility with callers
    that caught the old generic error.
    """


class RequestContext:
    """Identity of one in-flight request as it descends the stack.

    The root context is stamped where the request enters the system (a
    syscall, an intercepted IRP); each probed layer below extends it
    with its own ``(layer, operation)`` frame via :meth:`child`.  All
    frames share the root's ``request_id``, which is what lets a single
    event stream be sliced per request across layers.
    """

    __slots__ = ("request_id", "operation", "layer", "parent", "_values")

    def __init__(self, request_id: int, operation: str, layer: str,
                 parent: Optional["RequestContext"] = None):
        self.request_id = request_id
        self.operation = operation
        self.layer = layer
        self.parent = parent
        self._values: Optional[Dict[str, Any]] = None

    def child(self, operation: str, layer: str) -> "RequestContext":
        """A sub-request frame one layer further down the stack."""
        return RequestContext(self.request_id, operation, layer,
                              parent=self)

    @property
    def depth(self) -> int:
        depth = 0
        frame = self.parent
        while frame is not None:
            depth += 1
            frame = frame.parent
        return depth

    @property
    def path(self) -> Tuple[Tuple[str, str], ...]:
        """``((layer, operation), ...)`` frames, outermost first."""
        frames: List[Tuple[str, str]] = []
        frame: Optional[RequestContext] = self
        while frame is not None:
            frames.append((frame.layer, frame.operation))
            frame = frame.parent
        return tuple(reversed(frames))

    def annotate(self, key: str, value: Any) -> None:
        """Attach an internal OS variable (Figure 8's correlation input)."""
        if self._values is None:
            self._values = {}
        self._values[key] = value

    def value(self, key: str, default: Any = None) -> Any:
        """Look *key* up on this frame, then up the parent chain."""
        frame: Optional[RequestContext] = self
        while frame is not None:
            if frame._values is not None and key in frame._values:
                return frame._values[key]
            frame = frame.parent
        return default

    def __repr__(self) -> str:
        frames = "->".join(op for _, op in self.path)
        return f"<RequestContext #{self.request_id} {frames}>"


class ProbeToken:
    """FSPROF_PRE state: the entry timestamp plus the request context.

    A token may be finished exactly once; a second :meth:`ProbePoint.exit`
    is an instrumentation bug and raises :class:`TokenFinishedError`.
    """

    __slots__ = ("operation", "start", "context", "_done")

    def __init__(self, operation: str, start: float,
                 context: Optional[RequestContext] = None):
        self.operation = operation
        self.start = start
        self.context = context
        self._done = False


class EventSink:
    """Consumer protocol for probe events.

    ``consume`` receives one layer's drained batch — a list of
    ``(operation, start, latency, context)`` tuples with latencies
    already clamped non-negative.  ``flush`` is called when the pipeline
    is flushed with ``final=True`` (end of a collection), letting sinks
    with internal batching (:class:`StreamSink`) emit remainders.
    """

    def consume(self, layer: str, events: List[Event]) -> None:
        raise NotImplementedError

    def flush(self) -> None:  # pragma: no cover - default no-op
        pass


class NullSink(EventSink):
    """The "off" variant: drops everything, adds no buckets.

    Probes wired to nothing but ``NullSink`` deactivate their record
    path entirely, so the off variant's overhead is measured-zero — not
    merely small (`benchmarks/test_tbl_overhead.py` asserts this).
    """

    def consume(self, layer: str, events: List[Event]) -> None:
        pass


def _accumulate(pset: ProfileSet, layer: str,
                events: List[Event]) -> None:
    """Group a drained batch per operation and bulk-bucket it."""
    groups: Dict[str, List[float]] = {}
    groups_get = groups.get
    for op, _start, lat, _ctx in events:
        lats = groups_get(op)
        if lats is None:
            groups[op] = lats = []
        lats.append(lat)
    profile = pset.profile
    for op, lats in groups.items():
        profile(op, layer).histogram.add_many(lats)


class ProfileSink(EventSink):
    """Buckets events into a :class:`ProfileSet` (the complete profile).

    ``target`` is either a ProfileSet or a zero-argument callable
    returning one — the callable form tracks a
    :class:`~repro.core.profiler.Profiler` across ``reset()``, which
    replaces its underlying set.  A callable returning ``None`` drops
    the batch being drained: that is how a disabled profiler discards
    samples without a check on the record path.
    """

    def __init__(self, target: Union[ProfileSet,
                                     Callable[[], Optional[ProfileSet]]]):
        if isinstance(target, ProfileSet):
            self._resolve: Callable[[], Optional[ProfileSet]] = \
                lambda: target
        else:
            self._resolve = target

    def consume(self, layer: str, events: List[Event]) -> None:
        pset = self._resolve()
        if pset is not None:
            _accumulate(pset, layer, events)


class SamplingSink(EventSink):
    """Routes events into a :class:`SampledProfiler` (3-D profiles).

    Segment attribution uses each event's *start* timestamp, matching
    the paper's rule that the bucket set active at FSPROF_PRE time
    receives the sample.
    """

    def __init__(self, sampled: SampledProfiler):
        self.sampled = sampled

    def consume(self, layer: str, events: List[Event]) -> None:
        record = self.sampled.record
        for op, start, lat, _ctx in events:
            record(op, start, lat)


class CorrelationSink(EventSink):
    """Feeds a :class:`~repro.core.correlation.ValueCorrelator`.

    Requests annotate an internal variable on their context
    (``ctx.annotate(key, value)``); the sink correlates that value with
    the probed latency.  ``operation`` optionally restricts correlation
    to one operation's events (Figure 8 correlates only ``readdir``).
    """

    def __init__(self, correlator, key: str = "value",
                 operation: Optional[str] = None):
        self.correlator = correlator
        self.key = key
        self.operation = operation

    def consume(self, layer: str, events: List[Event]) -> None:
        pairs: List[Tuple[float, float]] = []
        for op, _start, lat, ctx in events:
            if self.operation is not None and op != self.operation:
                continue
            if ctx is None:
                continue
            value = ctx.value(self.key)
            if value is None:
                continue
            pairs.append((lat, value))
        if pairs:
            self.correlator.record_batch(pairs)


class StreamSink(EventSink):
    """Batches events into ProfileSets and pushes them to the service.

    Instead of one OSPS push per sample or per segment boundary decided
    elsewhere, the sink accumulates a pending set and pushes whenever it
    holds ``batch_ops`` samples; the final :meth:`flush` pushes the
    remainder.  ``push`` is a :class:`~repro.service.client.ServiceClient`
    (anything with a ``push(pset)`` method) or a bare callable.
    """

    def __init__(self, push, batch_ops: int = 2048,
                 name: str = "stream", spec: Optional[BucketSpec] = None):
        if batch_ops < 1:
            raise ValueError("batch_ops must be >= 1")
        self._push = push.push if hasattr(push, "push") else push
        self.batch_ops = batch_ops
        self.name = name
        self.spec = spec if spec is not None else BucketSpec()
        self._pending = ProfileSet(name=name, spec=self.spec)
        self.pushes = 0
        self.ops_streamed = 0

    def consume(self, layer: str, events: List[Event]) -> None:
        _accumulate(self._pending, layer, events)
        if self._pending.total_ops() >= self.batch_ops:
            self._emit()

    def flush(self) -> None:
        if self._pending.total_ops():
            self._emit()

    def _emit(self) -> None:
        pending = self._pending
        self._pending = ProfileSet(name=self.name, spec=self.spec)
        self.pushes += 1
        self.ops_streamed += pending.total_ops()
        self._push(pending)


class TraceEvent:
    """One probe event with its request identity, for per-request slicing."""

    __slots__ = ("request_id", "layer", "operation", "start", "latency",
                 "depth")

    def __init__(self, request_id: Optional[int], layer: str,
                 operation: str, start: float, latency: float, depth: int):
        self.request_id = request_id
        self.layer = layer
        self.operation = operation
        self.start = start
        self.latency = latency
        self.depth = depth

    def __repr__(self) -> str:
        return (f"<TraceEvent #{self.request_id} {self.layer}:"
                f"{self.operation} {self.latency:.0f}cyc>")


class TraceSink(EventSink):
    """Collects the unified event stream for request-slicing analysis.

    This is the ReLayTracer-style payoff of cross-layer contexts: one
    logical request's syscall, VFS/FS, driver, and network events all
    share a request id, so ``requests()`` hands back per-request slices
    of IO execution across every probed layer.
    """

    def __init__(self, limit: Optional[int] = None):
        self.events: List[TraceEvent] = []
        self.limit = limit
        self.dropped = 0

    def consume(self, layer: str, events: List[Event]) -> None:
        store = self.events
        limit = self.limit
        for op, start, lat, ctx in events:
            if limit is not None and len(store) >= limit:
                self.dropped += 1
                continue
            rid = ctx.request_id if ctx is not None else None
            depth = ctx.depth if ctx is not None else 0
            store.append(TraceEvent(rid, layer, op, start, lat, depth))

    def requests(self) -> Dict[int, List[TraceEvent]]:
        """Request id → its events, entry-ordered (start, then depth)."""
        grouped: Dict[int, List[TraceEvent]] = {}
        for event in self.events:
            if event.request_id is None:
                continue
            grouped.setdefault(event.request_id, []).append(event)
        for events in grouped.values():
            events.sort(key=lambda e: (e.start, e.depth))
        return grouped


class FanoutSink(EventSink):
    """Forwards one stream to several sinks (profile + sample + stream...).

    Consumers are isolated from each other: a sink that raises is
    counted against (``sink_errors``, ``last_errors``,
    ``events_dropped``) and skipped for that batch, while every other
    sink still receives the full event stream — one bad consumer (a
    dead service connection inside a :class:`StreamSink`, a buggy
    analysis sink) can degrade itself but can never drop events for the
    rest.  :meth:`degraded` and :meth:`metrics` surface the damage so
    it is observable, never silent.
    """

    def __init__(self, sinks: Sequence[EventSink]):
        self.sinks = tuple(sinks)
        self.sink_errors = [0] * len(self.sinks)
        self.last_errors: List[Optional[BaseException]] = \
            [None] * len(self.sinks)
        self.events_dropped = 0  #: events a failed sink did not receive

    def consume(self, layer: str, events: List[Event]) -> None:
        for index, sink in enumerate(self.sinks):
            try:
                sink.consume(layer, events)
            except Exception as exc:
                self.sink_errors[index] += 1
                self.last_errors[index] = exc
                self.events_dropped += len(events)

    def flush(self) -> None:
        for index, sink in enumerate(self.sinks):
            try:
                sink.flush()
            except Exception as exc:
                self.sink_errors[index] += 1
                self.last_errors[index] = exc

    def degraded(self) -> bool:
        """Has any consumer failed at least once?"""
        return any(self.sink_errors)

    def metrics(self) -> Dict[str, int]:
        """Degradation counters, ``osprof_*``-named for exposition."""
        return {
            "osprof_sink_errors_total": sum(self.sink_errors),
            "osprof_sink_events_dropped_total": self.events_dropped,
            "osprof_sinks_degraded": sum(
                1 for count in self.sink_errors if count),
        }


class ProbePoint:
    """Entry/exit instrumentation for one layer, emitting to sinks.

    The record path is deliberately tiny: clamp, append one
    ``(operation, start, latency, context)`` tuple to the probe's own
    event list, and drain the list once it holds the pipeline's
    ``batch_size`` events.  All bucketing happens at drain time.  A
    probe wired to no real sink (only :class:`NullSink`, or nothing)
    deactivates the path entirely.
    """

    __slots__ = ("pipeline", "layer", "name", "sinks", "clock", "active",
                 "_events", "_batch_size")

    def __init__(self, pipeline: "Pipeline", layer: str,
                 sinks: Sequence[EventSink],
                 clock: Optional[Callable[[], float]] = None,
                 name: str = ""):
        self.pipeline = pipeline
        self.layer = layer
        self.name = name or layer
        self.sinks = tuple(sinks)
        self.clock = clock
        self.active = any(not isinstance(s, NullSink) for s in self.sinks)
        self._events: List[Event] = []
        self._batch_size = pipeline.batch_size

    # -- the hot path -------------------------------------------------------

    def record(self, operation: str, latency: float, start: float = 0.0,
               context: Optional[RequestContext] = None) -> None:
        """Emit one measured latency (cycles) into the pipeline."""
        if not self.active:
            return
        if latency < 0.0:
            # Clock skew across CPUs (§3.4) can make latencies negative;
            # clamp so they land in bucket 0.
            latency = 0.0
        events = self._events
        events.append((operation, start, latency, context))
        if len(events) >= self._batch_size:
            self._drain()

    def _drain(self) -> None:
        """Hand the buffered events to this probe's and the global sinks."""
        events = self._events
        if not events:
            return
        self._events = []
        pipeline = self.pipeline
        pipeline.events_flushed += len(events)
        layer = self.layer
        for sink in self.sinks:
            sink.consume(layer, events)
        for sink in pipeline._global_sinks:
            sink.consume(layer, events)

    # -- entry/exit API -----------------------------------------------------

    def enter(self, operation: str,
              context: Optional[RequestContext] = None,
              parent: Optional[RequestContext] = None) -> ProbeToken:
        """FSPROF_PRE: read the clock, stamp a context, return a token.

        ``context`` uses an existing frame as-is; ``parent`` derives a
        child frame from it; with neither, a fresh root context is
        stamped (a new request id).
        """
        if context is None:
            if parent is not None:
                context = parent.child(operation, self.layer)
            else:
                context = self.pipeline.new_context(operation, self.layer)
        start = self.clock() if self.clock is not None else 0.0
        return ProbeToken(operation, start, context)

    def exit(self, token: ProbeToken) -> float:
        """FSPROF_POST: measure, clamp, and emit.  Returns the latency."""
        if token._done:
            raise TokenFinishedError(
                f"probe token for {token.operation!r} finished twice")
        token._done = True
        end = self.clock() if self.clock is not None else 0.0
        latency = end - token.start
        if latency < 0.0:
            latency = 0.0
        self.record(token.operation, latency, start=token.start,
                    context=token.context)
        return latency

    @contextmanager
    def request(self, operation: str,
                parent: Optional[RequestContext] = None
                ) -> Iterator[ProbeToken]:
        """Probe the body of a ``with`` block as one request."""
        token = self.enter(operation, parent=parent)
        try:
            yield token
        finally:
            self.exit(token)

    # -- context propagation through simulated processes --------------------

    def push_context(self, proc, operation: str) -> RequestContext:
        """Stamp a context frame on a simulated process.

        The root frame (no context on the process yet) allocates a new
        request id; nested frames extend the existing one.  Pair with
        :meth:`pop_context` in a ``finally``.
        """
        parent = proc.request_context
        if parent is None:
            context = self.pipeline.new_context(operation, self.layer)
        else:
            context = parent.child(operation, self.layer)
        proc.request_context = context
        return context

    @staticmethod
    def pop_context(proc, context: RequestContext) -> None:
        proc.request_context = context.parent

    def __repr__(self) -> str:
        return (f"<ProbePoint {self.name!r} layer={self.layer} "
                f"sinks={len(self.sinks)} "
                f"{'active' if self.active else 'inactive'}>")


class Pipeline:
    """Owns the request ids, probes, and global sinks of one machine.

    One pipeline spans one machine (or one collection): every probe
    created from it shares the request-id sequence — the property that
    makes cross-layer request slicing possible — and every probe's
    event list drains on :meth:`flush`.  ``batch_size`` is the number
    of events a probe buffers before it drains on its own.
    """

    def __init__(self, batch_size: int = DEFAULT_BATCH_SIZE,
                 clock: Optional[Callable[[], float]] = None):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.batch_size = batch_size
        self.clock = clock
        self._probes: List[ProbePoint] = []
        self._global_sinks: List[EventSink] = []
        self._next_request_id = 1
        self.events_flushed = 0

    # -- construction -------------------------------------------------------

    def probe(self, layer: str, *sinks: EventSink,
              clock: Optional[Callable[[], float]] = None,
              name: str = "") -> ProbePoint:
        """Create a probe for one layer, wired to *sinks*."""
        point = ProbePoint(self, layer, sinks,
                           clock=clock if clock is not None else self.clock,
                           name=name)
        if self._global_sinks:
            point.active = True
        self._probes.append(point)
        return point

    def add_global_sink(self, sink: EventSink) -> None:
        """Attach a sink receiving every probe's events (e.g. a trace).

        Pending events drain first, so the new sink sees exactly the
        events recorded after it was attached.
        """
        self.flush()
        self._global_sinks.append(sink)
        for probe in self._probes:
            probe.active = True

    def probes(self) -> List[ProbePoint]:
        return list(self._probes)

    # -- request identity ---------------------------------------------------

    def new_context(self, operation: str,
                    layer: str = Layer.USER) -> RequestContext:
        """Stamp a fresh root context (a new request id)."""
        rid = self._next_request_id
        self._next_request_id += 1
        return RequestContext(rid, operation, layer)

    # -- draining -----------------------------------------------------------

    def pending_events(self) -> int:
        return sum(len(probe._events) for probe in self._probes)

    def flush(self, final: bool = False) -> None:
        """Drain every probe's event list into the sinks.

        ``final=True`` additionally flushes the sinks themselves, which
        lets :class:`StreamSink` push its last partial batch.
        """
        for probe in self._probes:
            probe._drain()
        if final:
            seen = set()
            for probe in self._probes:
                for sink in probe.sinks:
                    if id(sink) not in seen:
                        seen.add(id(sink))
                        sink.flush()
            for sink in self._global_sinks:
                if id(sink) not in seen:
                    seen.add(id(sink))
                    sink.flush()

    def __repr__(self) -> str:
        return (f"<Pipeline probes={len(self._probes)} "
                f"pending={self.pending_events()} "
                f"flushed={self.events_flushed}>")


def wire_probe(pipeline: Pipeline, layer: str,
               profiler=None, sampled: Optional[SampledProfiler] = None,
               extra_sinks: Sequence[EventSink] = (),
               clock: Optional[Callable[[], float]] = None,
               name: str = "") -> ProbePoint:
    """Build a probe feeding a Profiler and/or SampledProfiler.

    This is the standard layer wiring: the profiler's ProfileSet gets a
    :class:`ProfileSink` (resolved through the profiler, so ``reset()``
    keeps working and a disabled profiler drops what drains), the
    sampled profiler a :class:`SamplingSink`, and both get the
    pipeline's flush attached so reading results always observes
    drained buffers.  With neither target and no extra sinks
    the probe gets a :class:`NullSink` — the measured-zero off variant.
    """
    sinks: List[EventSink] = []
    if profiler is not None:
        sinks.append(ProfileSink(
            lambda: profiler.profiles if profiler.enabled else None))
    if sampled is not None:
        sinks.append(SamplingSink(sampled))
    sinks.extend(extra_sinks)
    if not sinks:
        sinks.append(NullSink())
    probe = pipeline.probe(layer, *sinks, clock=clock, name=name)
    if profiler is not None:
        profiler.attach_flush(pipeline.flush)
    if sampled is not None:
        sampled.attach_flush(pipeline.flush)
    return probe
