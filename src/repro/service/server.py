"""The continuous profiling service: ingest, store, alert, report.

:class:`ProfileService` is the transport-agnostic core — a thread-safe
facade over the rolling :class:`~repro.service.store.SegmentStore` and
the :class:`~repro.service.alerts.DifferentialAlerter`.  All shared
state is guarded by a single lock, which is ample because a profile
merge is microseconds of histogram addition.

:data:`FRAME_HANDLERS` is the service's request surface as one sans-IO
table: each :mod:`repro.service.protocol` frame type maps to a handler
from ``(service, payload)`` to ``(reply type, reply payload)``, and
marks whether it runs under the bounded ingest slot.  The event-loop
transport (:mod:`repro.service.aio_server`) serves the table, owns the
ingest gate and answers ``METRICS``; the relay
(:mod:`repro.service.relay`) serves it with its own push handlers.

The service is itself observable: :meth:`ProfileService.metrics_text`
is a plaintext page (Prometheus exposition style) of segment counts,
ingest totals and latencies, and per-operation alert counters.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from ..core.buckets import BucketSpec
from ..core.profileset import ProfileSet, parse_binary
from ..sampling.stateprofile import StateProfile
from .alerts import Alert, DifferentialAlerter
from .protocol import (MAX_PAYLOAD, FrameType, decode_json, decode_push_seq,
                       decode_state_push, encode_json)
from .store import PushLedger, SegmentStore

__all__ = ["FRAME_HANDLERS", "FrameHandler", "ProfileService",
           "ServiceConfig", "bad_payload"]


@dataclass
class ServiceConfig:
    """Tunables of one service instance.

    ``segment_seconds`` and ``retention`` shape the rolling store;
    ``baseline_segments``/``metric``/``threshold``/``min_ops`` shape the
    online differential analysis (see
    :class:`~repro.service.alerts.DifferentialAlerter`).  The next four
    are the hardening knobs the transport applies: how long an idle
    connection may sit on a read, the largest frame the server will
    accept, how many pushes may be in flight before new ones are told
    to back off, and the backoff the ``RETRY_AFTER`` reply suggests.
    Values that would break serving raise :class:`ValueError`.
    """

    segment_seconds: float = 10.0
    retention: int = 360
    baseline_segments: int = 4
    metric: str = "emd"
    threshold: float = 0.5
    min_ops: int = 50
    resolution: int = 1
    max_alerts: int = 10_000
    read_timeout: float = 60.0
    max_frame_bytes: int = MAX_PAYLOAD
    max_pending: int = 8
    retry_after_seconds: float = 0.05
    #: Closed segments accumulated before one batched warehouse commit
    #: (single journal fsync via ``Warehouse.ingest_many``).  1 keeps
    #: the flush-per-close behaviour; eviction and :meth:`flush` always
    #: force the batch out regardless.
    flush_batch: int = 1

    def __post_init__(self):
        if not 0 < self.read_timeout < math.inf:
            raise ValueError(f"read_timeout must be positive and finite, "
                             f"got {self.read_timeout!r}")
        if not 0 <= self.retry_after_seconds < math.inf:
            raise ValueError(f"retry_after_seconds must be non-negative "
                             f"and finite, got {self.retry_after_seconds!r}")
        for name in ("max_frame_bytes", "max_pending", "flush_batch"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got "
                                 f"{getattr(self, name)!r}")


class ProfileService:
    """Thread-safe ingestion + rolling store + online alerting.

    With a ``warehouse`` attached, the service is durable: every
    non-empty closed segment (latency and wait-state samples) is flushed
    to it as one committed epoch, the store's eviction hook re-checks
    that nothing leaves memory unflushed, :meth:`close` commits the
    open segment, and the alerter's rolling baseline is seeded from the
    warehouse's most recent history on startup, so a restart resumes
    differential analysis against real history instead of a blind
    window.
    """

    def __init__(self, config: Optional[ServiceConfig] = None,
                 clock: Callable[[], float] = time.monotonic,
                 warehouse=None, warehouse_source: str = "service"):
        self.config = config if config is not None else ServiceConfig()
        spec = BucketSpec(self.config.resolution)
        self.warehouse = warehouse
        self.warehouse_source = warehouse_source
        self.warehouse_flush_errors = 0
        self._flush_queue: List = []  # closed segments awaiting commit
        self._flushed_epochs: set = set()
        self._epoch_base = (warehouse.index.next_epoch(warehouse_source)
                            if warehouse is not None else 0)
        self.store = SegmentStore(self.config.segment_seconds,
                                  self.config.retention,
                                  spec=spec, clock=clock,
                                  on_evict=self._segment_evicted)
        self.alerter = DifferentialAlerter(
            baseline_segments=self.config.baseline_segments,
            metric=self.config.metric,
            threshold=self.config.threshold,
            min_ops=self.config.min_ops)
        self.baseline_seeded = 0
        if warehouse is not None:
            self.baseline_seeded = self.alerter.seed(
                warehouse.recent_psets(warehouse_source,
                                       self.config.baseline_segments))
        self._lock = threading.Lock()
        self._alerts: List[Alert] = []
        self._alerts_dropped = 0
        self.ledger = PushLedger()
        # Serializes the check-ingest-record window of sequenced pushes
        # so a replayed sequence racing its original cannot double-merge.
        self._seq_lock = threading.Lock()
        # Ingest counters (all guarded by the lock).
        self.ingest_requests = 0
        self.ingest_errors = 0
        self.ingest_bytes = 0
        self.ingest_ops = 0
        self.ingest_seconds_sum = 0.0
        self.ingest_seconds_max = 0.0
        # Replayed pushes acknowledged without a merge (guarded by the
        # lock); the transport counts the rest of its self-defence.
        self.ingest_duplicates = 0
        # Wait-state sampling: fleet-wide sampler health counters (all
        # guarded by the lock); the profiles live in the store segments.
        self.state_pushes = 0
        self.state_errors = 0
        self.samples_total = 0
        self.sample_intervals_total = 0
        self.sampler_overhead_ns_total = 0

    # -- ingestion ---------------------------------------------------------

    def ingest_payload(self, payload: bytes) -> Tuple[int, int]:
        """Decode one binary profile payload and fold it into the store.

        Returns ``(ops, operations)``: the requests the payload carried
        and how many operations they span.  Decoding runs outside the
        service lock; only the fold into the open segment runs under
        it.  Raises :class:`ValueError` (propagated to the client as an
        ``ERROR`` frame) on a corrupt payload or a resolution mismatch;
        the store is untouched in that case.
        """
        started = time.perf_counter()
        try:
            _crc, spec, _name, _attributes, rows = parse_binary(payload)
        except ValueError:
            with self._lock:
                self.ingest_errors += 1
            raise
        ops = sum(row[2] for row in rows)
        with self._lock:
            try:
                closed = self.store.ingest(spec, rows)
            except ValueError:
                self.ingest_errors += 1
                raise
            self._observe_closed(closed)
            elapsed = time.perf_counter() - started
            self.ingest_requests += 1
            self.ingest_bytes += len(payload)
            self.ingest_ops += ops
            self.ingest_seconds_sum += elapsed
            if elapsed > self.ingest_seconds_max:
                self.ingest_seconds_max = elapsed
        return ops, len(rows)

    def ingest_sequenced(self, client_id: str, seq: int,
                         payload: bytes) -> Tuple[str, bool]:
        """Idempotent ingest: ``(status line, whether anything merged)``.

        A sequence at or below the client's ledger high-water mark is a
        replay of an already-merged push (the client lost the reply) and
        is acknowledged without touching the store.  The ledger records
        a sequence only after its ingest succeeded, so a rejected
        payload may be retried under the same number.
        """
        with self._seq_lock:
            with self._lock:
                if not self.ledger.is_new(client_id, seq):
                    self.ingest_duplicates += 1
                    return (f"duplicate of push seq {seq}; already merged",
                            False)
            ops, operations = self.ingest_payload(payload)
            with self._lock:
                self.ledger.record(client_id, seq)
        return (f"merged {ops} ops over {operations} "
                f"operations (seq {seq})", True)

    def ingest_state(self, payload: bytes,
                     overhead_ns: int = 0) -> StateProfile:
        """Decode one wait-state profile push and absorb it.

        The profile folds into the open store segment, exactly as a
        latency push does (a push may rotate the store), and bumps the
        fleet-wide sampler health counters.  With a warehouse attached
        it becomes durable when its segment closes, as a ``samples``
        segment at the segment's epoch.  Raises :class:`ValueError` on
        a corrupt payload; nothing is recorded in that case.
        """
        try:
            sprof = StateProfile.from_bytes(payload)
        except ValueError:
            with self._lock:
                self.state_errors += 1
            raise
        with self._lock:
            self._observe_closed(self.store.ingest_state(sprof))
            self.state_pushes += 1
            self.samples_total += sprof.total_samples()
            self.sample_intervals_total += sprof.intervals
            self.sampler_overhead_ns_total += max(overhead_ns, 0)
        return sprof

    def state_snapshot(self) -> StateProfile:
        """The wait-state merge of every retained segment (canonical)."""
        with self._lock:
            return StateProfile.merged(
                (seg.sprof for seg in self.store.segments()
                 if seg.sprof is not None), name="state-window")

    def tick(self, now: Optional[float] = None) -> List[Alert]:
        """Rotate the store on the clock alone (no push needed).

        Lets a quiet service still close segments and alert on e.g. an
        operation's disappearance being followed by a changed profile
        when traffic resumes.  Returns any alerts the rotation raised.
        """
        with self._lock:
            before = len(self._alerts) + self._alerts_dropped
            self._observe_closed(self.store.advance(now))
            return self._alerts[max(before - self._alerts_dropped, 0):]

    def _observe_closed(self, closed) -> None:
        # Lock held.  Segments without latency data neither alert nor
        # enter the baseline: an idle gap must not dilute the reference.
        for segment in closed:
            self._flush_segment(segment)
            if not len(segment.pset):
                continue
            for alert in self.alerter.observe(segment.index, segment.pset):
                self._alerts.append(alert)
            overflow = len(self._alerts) - self.config.max_alerts
            if overflow > 0:
                del self._alerts[:overflow]
                self._alerts_dropped += overflow

    def _flush_segment(self, segment) -> None:
        # Lock held (or eviction during advance, which runs under it).
        # Durability beats alerting: the warehouse commit is queued
        # before the segment is scored, and a failed flush is counted,
        # never allowed to take ingestion down with it.  With
        # ``flush_batch`` > 1 the commit itself is deferred until the
        # batch fills (one journal fsync for the lot) — eviction and
        # :meth:`flush` force it out.
        if self.warehouse is None or segment.is_empty():
            return
        if segment.index in self._flushed_epochs:
            return
        self._flushed_epochs.add(segment.index)
        self._flush_queue.append(segment)
        if len(self._flush_queue) >= self.config.flush_batch:
            self._flush_queued()

    def _flush_queued(self) -> None:
        # Lock held.  One Warehouse.ingest_many call commits the whole
        # queue; on failure the queue marks roll back so the eviction
        # re-check retries before anything leaves memory for good.
        if not self._flush_queue or self.warehouse is None:
            return
        batch = []
        for segment in self._flush_queue:
            epoch = self._epoch_base + segment.index
            if len(segment.pset):
                batch.append((segment.pset, epoch))
            if segment.sprof is not None:
                batch.append((segment.sprof, epoch))
        try:
            self.warehouse.ingest_many(self.warehouse_source, batch)
        except (OSError, ValueError):
            self.warehouse_flush_errors += 1
            for segment in self._flush_queue:
                self._flushed_epochs.discard(segment.index)
        self._flush_queue.clear()

    def flush(self) -> None:
        """Force any batched-but-uncommitted closed segments to disk."""
        with self._lock:
            self._flush_queued()

    def close(self) -> None:
        """The graceful-stop flush: commit everything, the open segment
        included.  A push folded into that segment afterwards is lost."""
        with self._lock:
            self._flush_segment(self.store.current)
            self._flush_queued()

    def _segment_evicted(self, segment) -> None:
        # The store's on_evict hook: the last exit from memory.  Closed
        # segments were already queued in _observe_closed; this
        # re-check catches any segment that slipped past, and the
        # forced flush guarantees nothing pending outlives the ring
        # (which also keeps the flushed-epoch set from growing).
        self._flush_segment(segment)
        self._flush_queued()
        self._flushed_epochs.discard(segment.index)

    # -- queries -----------------------------------------------------------

    def snapshot(self) -> ProfileSet:
        """The merge of every retained segment (canonical encoding)."""
        with self._lock:
            return self.store.merged()

    def alerts_since(self, cursor: int) -> Tuple[int, List[Alert]]:
        """Alerts with log position >= *cursor*, plus the next cursor.

        Cursors are absolute log positions, monotone across eviction of
        old entries, so a ``watch`` client polls with the cursor the
        previous reply returned and never sees an alert twice.
        """
        with self._lock:
            base = self._alerts_dropped
            start = max(cursor - base, 0)
            fresh = self._alerts[start:]
            return base + len(self._alerts), list(fresh)

    def sql(self, query: str) -> dict:
        """Run one ``osprof db sql`` query against the attached warehouse.

        The store first rotates on the clock (as ``ALERTS`` does) and
        batched-but-uncommitted closed segments are flushed, so the
        query sees every segment whose interval has ended, not just what
        the last push or batch boundary happened to commit.  Raises
        :class:`ValueError` (a clean ``ERROR`` frame) without a
        warehouse, on a malformed query, or on a missing baseline.
        """
        if self.warehouse is None:
            raise ValueError(
                "sql queries need a warehouse: start the server with "
                "--db DIR")
        from ..warehouse.sql import execute_sql
        self.tick()
        self.flush()
        return execute_sql(self.warehouse, query).as_dict()

    def metrics_text(self) -> str:
        """The plaintext metrics page (Prometheus exposition style)."""
        wh = self.warehouse
        with self._lock:
            lines = [
                "# OSprof continuous profiling service",
                f"osprof_segment_seconds {self.store.segment_length:g}",
                f"osprof_segment_retention {self.store.retention}",
                f"osprof_segments_current {len(self.store)}",
                f"osprof_segments_closed_total {self.store.segments_closed}",
                f"osprof_segments_evicted_total "
                f"{self.store.segments_evicted}",
                f"osprof_ingest_requests_total {self.ingest_requests}",
                f"osprof_ingest_errors_total {self.ingest_errors}",
                f"osprof_ingest_bytes_total {self.ingest_bytes}",
                f"osprof_ingest_ops_total {self.ingest_ops}",
                f"osprof_ingest_seconds_sum {self.ingest_seconds_sum:.9f}",
                f"osprof_ingest_seconds_max {self.ingest_seconds_max:.9f}",
                f"osprof_store_operations {len(self.store.merged())}",
                f"osprof_alerts_total "
                f"{len(self._alerts) + self._alerts_dropped}",
                f"osprof_ingest_duplicates_total {self.ingest_duplicates}",
                f"osprof_push_clients {len(self.ledger)}",
                f"osprof_warehouse_segments_total "
                f"{wh.segments_total if wh else 0}",
                f"osprof_warehouse_compactions_total "
                f"{wh.compactions_total if wh else 0}",
                f"osprof_warehouse_gc_evictions_total "
                f"{wh.gc_evictions_total if wh else 0}",
                f"osprof_warehouse_flush_errors_total "
                f"{self.warehouse_flush_errors}",
                f"osprof_warehouse_flush_pending {len(self._flush_queue)}",
                f"osprof_warehouse_cache_hits_total "
                f"{wh.cache_hits_total if wh else 0}",
                f"osprof_warehouse_cache_misses_total "
                f"{wh.cache_misses_total if wh else 0}",
                f"osprof_warehouse_scrub_scanned_total "
                f"{wh.scrub_scanned_total if wh else 0}",
                f"osprof_warehouse_scrub_corrupt_total "
                f"{wh.scrub_corrupt_total if wh else 0}",
                f"osprof_warehouse_scrub_repaired_total "
                f"{wh.scrub_repaired_total if wh else 0}",
                f"osprof_state_pushes_total {self.state_pushes}",
                f"osprof_state_errors_total {self.state_errors}",
                f"osprof_samples_total {self.samples_total}",
                f"osprof_sample_intervals_total "
                f"{self.sample_intervals_total}",
                f"osprof_sampler_overhead_ns_total "
                f"{self.sampler_overhead_ns_total}",
            ]
            per_op: dict = {}
            for alert in self._alerts:
                key = (alert.operation, alert.kind)
                per_op[key] = per_op.get(key, 0) + 1
            for (op, kind), count in sorted(per_op.items()):
                lines.append(
                    f'osprof_alerts{{operation="{op}",kind="{kind}"}} '
                    f"{count}")
            return "\n".join(lines) + "\n"


# -- the frame surface -------------------------------------------------------

#: One reply: ``(frame type, payload)``.
Reply = Tuple[int, bytes]


class FrameHandler(NamedTuple):
    """One entry of a frame table: ``handle(service, payload) -> Reply``.

    A ``gated`` frame runs under the service's bounded ingest slot: the
    transport claims a slot first (answering ``RETRY_AFTER`` when none
    is free) and holds it until the reply is written.
    """

    handle: Callable[[Any, bytes], Reply]
    gated: bool = False


def _decode_request(payload: bytes) -> dict:
    """The JSON object carried by an ``ALERTS``/``SQL`` request.

    An empty body is ``{}``.  Valid JSON that is not an object raises
    :class:`ValueError`, which the transport answers with an ``ERROR``
    frame on a connection that stays usable.
    """
    request = decode_json(payload) if payload else {}
    if not isinstance(request, dict):
        raise ValueError(f"request body must be a JSON object, "
                         f"not {type(request).__name__}")
    return request


def bad_payload(ingest: Callable[[], str]) -> Reply:
    """Ack one ingest with its status line, or answer ``bad-payload:``.

    The prefix marks a payload that did not decode — damaged in transit,
    so a resilient client resends it under the same sequence — apart
    from every other rejection, which it must not retry.
    """
    try:
        return FrameType.OK, ingest().encode("utf-8")
    except ValueError as exc:
        return FrameType.ERROR, f"bad-payload: {exc}".encode("utf-8")


def _push(service, payload: bytes) -> Reply:
    ops, operations = service.ingest_payload(payload)
    return FrameType.OK, (f"merged {ops} ops over "
                          f"{operations} operations").encode("utf-8")


def _push_seq(service, payload: bytes) -> Reply:
    client_id, seq, profile = decode_push_seq(payload)
    return bad_payload(
        lambda: service.ingest_sequenced(client_id, seq, profile)[0])


def _state_push(service, payload: bytes) -> Reply:
    overhead_ns, profile = decode_state_push(payload)

    def ingest() -> str:
        sprof = service.ingest_state(profile, overhead_ns=overhead_ns)
        return (f"sampled {sprof.total_samples()} samples over "
                f"{sprof.intervals} interval(s)")
    return bad_payload(ingest)


def _snapshot(service, payload: bytes) -> Reply:
    return FrameType.PROFILE, service.snapshot().to_bytes()


def _alerts(service, payload: bytes) -> Reply:
    request = _decode_request(payload)
    try:
        cursor = int(request.get("cursor", 0))
    except TypeError:  # null, list, object: ValueError covers the rest
        raise ValueError(
            f"bad alerts cursor {request['cursor']!r}") from None
    service.tick()
    next_cursor, alerts = service.alerts_since(cursor)
    return FrameType.ALERT_LOG, encode_json(
        {"cursor": next_cursor, "alerts": [a.to_dict() for a in alerts]})


def _sql(service, payload: bytes) -> Reply:
    query = str(_decode_request(payload).get("sql", ""))
    return FrameType.TABLE, encode_json(service.sql(query))


def _state_snapshot(service, payload: bytes) -> Reply:
    return FrameType.STATE_PROFILE, service.state_snapshot().to_bytes()


#: The service's request surface, frame type -> handler.  A transport
#: looks a frame up here and answers a type with no entry with
#: ``unsupported frame type``.
FRAME_HANDLERS: Dict[int, FrameHandler] = {
    FrameType.PUSH: FrameHandler(_push, gated=True),
    FrameType.PUSH_SEQ: FrameHandler(_push_seq, gated=True),
    FrameType.STATE_PUSH: FrameHandler(_state_push, gated=True),
    FrameType.SNAPSHOT: FrameHandler(_snapshot),
    FrameType.ALERTS: FrameHandler(_alerts),
    FrameType.SQL: FrameHandler(_sql),
    FrameType.STATE_SNAPSHOT: FrameHandler(_state_snapshot),
}
