"""Rolling time-segmented (3-D) profile store.

"OSprof is capable of taking successive snapshots by using new sets of
buckets to capture latency at predefined time intervals" (Section 3.1).
:class:`SegmentStore` keeps that idea running indefinitely: wall time is
divided into fixed-length segments, the decoded rows of every pushed
profile (and every pushed wait-state profile) are folded into the
segment containing its arrival time, and only the most recent
``retention`` closed segments are kept — a ring buffer of complete
profiles, each as cheap as the paper's "≈1 KB per operation" dumps.

Because profile merging is plain histogram addition (commutative and
associative), the merge of everything retained is byte-identical to a
serial merge of the same pushes, no matter how many collectors pushed
concurrently or in what order the segments rotated.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional

from ..core.buckets import BucketSpec
from ..core.profileset import ProfileSet, Row
from ..sampling.stateprofile import StateProfile

__all__ = ["Segment", "SegmentStore", "PushLedger"]


class PushLedger:
    """Per-client idempotency index for sequenced pushes.

    A resilient client stamps every push with ``(client_id, seq)`` and,
    after an ambiguous failure (connection died before the reply), sends
    the *same* sequence again.  The ledger records the highest sequence
    each client has successfully ingested, so the replay is recognized
    and skipped — exactly-once merging over an at-least-once transport.

    Sequences are per-client and strictly monotonic (clients send one
    push at a time), so a single high-water mark per client suffices;
    record a sequence only after its ingest succeeded, so a push the
    server rejected (corrupt payload) may be retried under its number.
    """

    def __init__(self):
        self._last: dict = {}

    def is_new(self, client_id: str, seq: int) -> bool:
        """Would this ``(client, seq)`` be a first-time ingest?"""
        return seq > self._last.get(client_id, 0)

    def record(self, client_id: str, seq: int) -> None:
        """Mark ``(client, seq)`` ingested (monotonic: never regresses)."""
        if seq > self._last.get(client_id, 0):
            self._last[client_id] = seq

    def last(self, client_id: str) -> int:
        """Highest sequence ingested for *client_id* (0 if none)."""
        return self._last.get(client_id, 0)

    def as_dict(self) -> dict:
        """The high-water marks as a plain dict (for persistence).

        A relay folds this into its durable state file so a restart
        keeps deduplicating its downstream clients — see
        :mod:`repro.service.relay`.
        """
        return dict(self._last)

    def update_from(self, marks: dict) -> None:
        """Fold persisted high-water marks back in (monotonic merge)."""
        for client_id, seq in marks.items():
            self.record(str(client_id), int(seq))

    def __len__(self) -> int:
        return len(self._last)


@dataclass
class Segment:
    """One closed (or still-filling) time slice of the rolling store."""

    index: int            #: segment number since the store's epoch
    started: float        #: clock value at the segment's lower edge
    pset: ProfileSet = field(default_factory=ProfileSet)
    ingests: int = 0      #: pushes merged into this segment
    #: Merge of the wait-state pushes that arrived in this slice;
    #: ``None`` until the first one does.
    sprof: Optional[StateProfile] = None

    def is_empty(self) -> bool:
        return len(self.pset) == 0 and self.sprof is None


class SegmentStore:
    """Ring buffer of per-interval profile sets.

    ``segment_length`` is the slice width in clock units (seconds for
    the default ``time.monotonic`` clock); ``retention`` bounds how many
    *closed* segments are kept.  The clock is injectable, so tests (and
    simulated deployments) drive rotation deterministically.
    """

    def __init__(self, segment_length: float, retention: int,
                 spec: Optional[BucketSpec] = None,
                 clock: Callable[[], float] = time.monotonic,
                 on_evict: Optional[Callable[[Segment], None]] = None):
        if segment_length <= 0:
            raise ValueError("segment_length must be positive")
        if retention < 1:
            raise ValueError("retention must be >= 1")
        self.segment_length = segment_length
        self.retention = retention
        self.spec = spec if spec is not None else BucketSpec()
        self.clock = clock
        self.on_evict = on_evict
        self._epoch = clock()
        self._closed: List[Segment] = []
        self._current = Segment(index=0, started=self._epoch,
                                pset=self._new_pset(0))
        self.segments_closed = 0
        self.segments_evicted = 0

    def _new_pset(self, index: int) -> ProfileSet:
        return ProfileSet(name="", spec=self.spec)

    def _index_for(self, now: float) -> int:
        elapsed = now - self._epoch
        if elapsed <= 0:
            return 0
        return int(elapsed // self.segment_length)

    # -- rotation ----------------------------------------------------------

    def advance(self, now: Optional[float] = None) -> List[Segment]:
        """Close segments whose window has passed; return the closed ones.

        Idle gaps do not materialize empty segments — the next segment
        simply starts at the index the clock dictates, so a quiet hour
        costs nothing.

        Eviction is observable: every segment dropped past
        ``retention`` is handed to the ``on_evict`` callback before it
        is forgotten, so a durability layer (the warehouse flush hook
        in :mod:`repro.service.server`) can guarantee nothing leaves
        memory unseen.  An ``on_evict`` that raises propagates — losing
        data silently is worse than failing the rotation.
        """
        now = self.clock() if now is None else now
        target = self._index_for(now)
        closed: List[Segment] = []
        if target > self._current.index:
            closed.append(self._current)
            self._closed.append(self._current)
            self.segments_closed += 1
            while len(self._closed) > self.retention:
                evicted = self._closed.pop(0)
                self.segments_evicted += 1
                if self.on_evict is not None:
                    self.on_evict(evicted)
            self._current = Segment(
                index=target,
                started=self._epoch + target * self.segment_length,
                pset=self._new_pset(target))
        return closed

    # -- ingestion ---------------------------------------------------------

    def ingest(self, spec: BucketSpec, rows: Iterable[Row],
               now: Optional[float] = None) -> List[Segment]:
        """Fold one pushed profile's decoded rows into the current segment.

        *spec* and *rows* are what
        :func:`~repro.core.profileset.parse_binary` returned for the
        push.  Returns whatever segments this push's arrival time
        closed, so the caller can run differential analysis on them
        immediately.  A resolution mismatch raises :class:`ValueError`
        — collectors must agree on the bucket spec.
        """
        if spec != self.spec:
            raise ValueError(
                f"pushed profile resolution {spec.resolution} differs "
                f"from the store's {self.spec.resolution}")
        now = self.clock() if now is None else now
        closed = self.advance(now)
        self._current.pset.fold_rows(rows)
        self._current.ingests += 1
        return closed

    def ingest_state(self, sprof: StateProfile,
                     now: Optional[float] = None) -> List[Segment]:
        """Fold one pushed wait-state profile into the current segment;
        rotates and returns what the arrival closed, as :meth:`ingest`."""
        closed = self.advance(now)
        current = self._current
        if current.sprof is None:
            # The first push's period, so one-period pushes keep it.
            current.sprof = StateProfile(interval=sprof.interval)
        current.sprof.merge(sprof)
        return closed

    # -- queries -----------------------------------------------------------

    @property
    def current(self) -> Segment:
        return self._current

    def closed_segments(self) -> List[Segment]:
        """The retained closed segments, oldest first."""
        return list(self._closed)

    def segments(self) -> List[Segment]:
        """Retained closed segments plus the currently filling one."""
        return list(self._closed) + [self._current]

    def __len__(self) -> int:
        return len(self._closed) + 1

    def merged(self) -> ProfileSet:
        """Everything retained, folded into one complete profile.

        Canonical output: the result has an empty name and no
        attributes, so it is byte-comparable (via ``to_bytes``) with a
        serial merge of the same inputs.
        """
        return ProfileSet.merged((seg.pset for seg in self.segments()),
                                 spec=self.spec)

    def total_ops(self) -> int:
        return sum(seg.pset.total_ops() for seg in self.segments())

    def __repr__(self) -> str:
        return (f"<SegmentStore segments={len(self)} "
                f"retention={self.retention} "
                f"length={self.segment_length}s ops={self.total_ops()}>")
