"""The durable profile warehouse: segment files + commit log + index.

On-disk layout under one root directory (see ``docs/WAREHOUSE.md``)::

    wal.log                        append-only commit journal
    segments/<source>/tN-<epoch>-<id>.ospb   one ProfileSet.to_bytes()
    baselines/<name>.ospb          named reference profiles

Everything mutable goes through a write-then-commit discipline: the
segment payload lands first via atomic rename, then one log record
commits it.  The index is rebuilt from the log on every open, so the
warehouse recovers from a crash at any instant — an uncommitted file is
an orphan (swept by :meth:`Warehouse.gc`), a committed one is fully
visible, and nothing in between exists.

Determinism is inherited from the codec and the shard-merge rules:
segment payloads are canonical ``ProfileSet.to_bytes()`` encodings,
compaction merges groups in ``(epoch, seg_id)`` order with
:meth:`ProfileSet.merged`, and queries merge selected segments the same
way — so ``query()`` over compacted history is byte-identical to the
same query over the raw segments it replaced.
"""

from __future__ import annotations

import os
import re
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from ..core import durable
from ..core.faults import FaultPlan
from ..core.profileset import ProfileSet, parse_binary
from ..sampling.stateprofile import StateProfile
from .columnar import ColumnarSegment, merged_profile_set
from .index import SegmentMeta, WarehouseIndex
from .log import SegmentLog
from .tiers import CompactionGroup, CompactionPolicy, plan_fixpoint, \
    plan_gc

__all__ = ["ScrubReport", "Warehouse", "WarehouseError"]

_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]{0,63}\Z")
_SUFFIX = ".ospb"


class WarehouseError(ValueError):
    """A warehouse-level failure: bad name, missing segment, damage."""


#: Suffix a scrub appends when it moves a damaged segment file aside.
#: ``<file>.ospb.quarantined`` no longer matches the ``*.ospb`` sweep
#: glob, so forensics evidence survives gc until a repair removes it.
_QUARANTINE_SUFFIX = ".quarantined"


@dataclass
class ScrubReport:
    """What one :meth:`Warehouse.scrub` pass saw and did."""

    scanned: int = 0          #: live segment files verified
    corrupt: int = 0          #: files that failed verification
    repaired: int = 0         #: files restored byte-identically
    journal_records: int = 0  #: CRC-good commit-log records
    journal_bad_bytes: int = 0  #: distrusted journal tail, in bytes
    issues: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """No unrepaired damage anywhere (the exit-0 condition)."""
        return self.corrupt == self.repaired \
            and self.journal_bad_bytes == 0


def _check_name(kind: str, name: str) -> str:
    if not _NAME_RE.match(name or ""):
        raise WarehouseError(
            f"bad {kind} name {name!r}: use 1-64 characters from "
            f"[A-Za-z0-9._-], not starting with a separator")
    return name


class Warehouse:
    """Durable, append-only, queryable store of closed profile segments.

    Thread-safe for one process (a single lock over index + log, like
    the service's store lock); multi-process writers are out of scope —
    the service owns its warehouse directory.  ``fault_plan`` arms the
    ``warehouse.ingest``/``warehouse.compact`` crash sites for the
    crash-safety tests.
    """

    def __init__(self, root, policy: Optional[CompactionPolicy] = None,
                 fault_plan: Optional[FaultPlan] = None, mirror_dir=None):
        self.root = Path(root)
        self._root_prefix = os.path.join(os.fspath(self.root), "")
        self.policy = policy if policy is not None else CompactionPolicy()
        self._plan = fault_plan if fault_plan is not None else FaultPlan()
        self._fault_attempts: Dict[str, int] = {}
        self._lock = threading.Lock()
        durable.ensure_dir(self.root / "segments")
        durable.ensure_dir(self.root / "baselines")
        #: Optional second tree double-committed with every segment
        #: payload: primary file, then mirror file, then the one log
        #: record — so a committed record implies both copies landed,
        #: and ``scrub(repair=True)`` can restore quarantined primaries
        #: byte-identically.
        self.mirror = Path(mirror_dir) if mirror_dir is not None else None
        if self.mirror is not None:
            durable.ensure_dir(self.mirror / "segments")
            self._mirror_prefix = os.path.join(os.fspath(self.mirror), "")
        self.log = SegmentLog(self.root / "wal.log")
        self.index = WarehouseIndex()
        for record in self.log.recover():
            self.index.apply(record)
        self.orphans_removed = 0  #: uncommitted files swept by gc()
        # Scrub counters (exported by the service metrics page).
        self.scrub_scanned_total = 0
        self.scrub_corrupt_total = 0
        self.scrub_repaired_total = 0
        # Decoded-segment cache: seg_id -> ColumnarSegment.  Segment
        # files are immutable once committed, but a hit still re-reads
        # the 4-byte codec trailer at the committed size and compares it
        # against the cached entry's CRC, so a file swapped, grown,
        # shrunk or damaged underneath us is decoded (and CRC-checked)
        # afresh instead of served stale.  Entries die with their
        # segment: compaction supersede and gc eviction both invalidate.
        self._columns: Dict[int, ColumnarSegment] = {}
        self.cache_hits_total = 0
        self.cache_misses_total = 0

    # -- counters (exported by the service metrics page) --------------------

    @property
    def segments_total(self) -> int:
        return self.index.segments_total

    @property
    def compactions_total(self) -> int:
        return self.index.compactions_total

    @property
    def gc_evictions_total(self) -> int:
        return self.index.gc_evictions_total

    # -- plumbing ------------------------------------------------------------

    def _fire(self, site: str, key: str) -> None:
        # One ordinal stream per site, shared across keys, so a plan can
        # target e.g. "the crash window of the 3rd ingest".
        attempt = self._fault_attempts.get(site, 0)
        self._fault_attempts[site] = attempt + 1
        self._plan.fire(site, key=key, attempt=attempt)

    def _write_atomic(self, rel: str, payload: bytes) -> None:
        durable.write_atomic(self.root / rel, payload)

    def _write_segment(self, rel: str, payload: bytes) -> None:
        """Land one segment payload: primary tree, then mirror copy."""
        durable.write_atomic(self.root / rel, payload)
        if self.mirror is not None:
            durable.write_atomic(self.mirror / rel, payload)

    def _segment_file(self, source: str, tier: int, epoch: int,
                      seg_id: int) -> str:
        return (f"segments/{source}/t{tier}-{epoch:012d}-"
                f"{seg_id:08d}{_SUFFIX}")

    # -- ingestion -----------------------------------------------------------

    def ingest(self, source: str, pset: ProfileSet,
               epoch: Optional[int] = None) -> SegmentMeta:
        """Persist one closed segment for *source* at *epoch* (tier 0).

        ``epoch=None`` appends after everything already stored for the
        source.  Multiple segments may share an epoch (concurrent
        collectors); queries merge them.  Returns the committed meta.
        """
        return self.ingest_many(source, [(pset, epoch)])[0]

    def ingest_many(self, source: str, items) -> List[SegmentMeta]:
        """Persist a batch of ``(profile, epoch)`` segments with one commit.

        Each *profile* is a :class:`ProfileSet` (a latency segment) or a
        :class:`StateProfile` (a wait-state ``samples`` segment; see
        :meth:`ingest_state`); only the meta built for it differs.

        The write-then-commit discipline holds batch-wide: every
        segment file lands first (atomic rename each), then all commit
        records are journaled through
        :meth:`~repro.warehouse.log.SegmentLog.append_many` — one fsync
        for the whole batch, which is what lets the service flush many
        closed segments per durable write under fleet-scale ingest.  A
        crash mid-batch commits a prefix of the records (each line is
        CRC-framed) and leaves the rest as orphan files for
        :meth:`gc`, exactly the single-ingest crash contract.
        ``epoch=None`` entries append after everything stored, in batch
        order.  Returns the committed metas, batch order.
        """
        _check_name("source", source)
        with self._lock:
            metas: List[SegmentMeta] = []
            payloads: List[bytes] = []
            next_epoch = None
            for offset, (profile, epoch) in enumerate(items):
                if epoch is None:
                    if next_epoch is None:
                        next_epoch = self.index.next_epoch(source)
                    epoch = next_epoch
                    next_epoch += 1
                else:
                    epoch = int(epoch)
                    next_epoch = max(next_epoch, epoch + 1) \
                        if next_epoch is not None else epoch + 1
                if epoch < 0:
                    raise WarehouseError(f"negative epoch {epoch}")
                seg_id = self.index.next_id + offset
                payload = profile.to_bytes()
                resid = []
                if isinstance(profile, StateProfile):
                    kind = "samples"
                    ops = {(layer, op) for (_state, layer, op, _site)
                           in profile.cells()}
                else:
                    kind = "profile"
                    ops = [(prof.layer, prof.operation) for prof in profile]
                    for prof in profile:
                        components = prof.histogram.latency_residual()
                        if components:
                            resid.append((prof.operation, tuple(components)))
                metas.append(SegmentMeta(
                    seg_id=seg_id, source=source, tier=0, epoch=epoch,
                    span=1,
                    file=self._segment_file(source, 0, epoch, seg_id),
                    nbytes=len(payload), ops=tuple(sorted(ops)),
                    resid=tuple(sorted(resid)),
                    crc=int.from_bytes(payload[-4:], "little"),
                    kind=kind))
                payloads.append(payload)
            for meta, payload in zip(metas, payloads):
                self._write_segment(meta.file, payload)
                self._fire("warehouse.ingest", "after-file")
            records = [meta.to_record(inputs=()) for meta in metas]
            self.log.append_many(records)
            self._fire("warehouse.ingest", "after-log")
            for record in records:
                self.index.apply(record)
            return metas

    def ingest_state(self, source: str, sprof: StateProfile,
                     epoch: Optional[int] = None) -> SegmentMeta:
        """Persist one wait-state sample segment (kind ``"samples"``).

        Sample segments live beside latency segments under the same
        source — same directory, same commit discipline, same scrub
        coverage — but carry :class:`StateProfile` payloads and a
        ``kind="samples"`` journal mark, so latency queries, compaction
        and retention never see them.  ``epoch=None`` appends after
        everything stored for the source (either family).
        """
        return self.ingest_many(source, [(sprof, epoch)])[0]

    # -- reading -------------------------------------------------------------

    @staticmethod
    def _read(path: str) -> bytes:
        # Every segment-file read: an unbuffered open of a prebuilt path
        # string, no pathlib objects on a path taken once per segment.
        with open(path, "rb", buffering=0) as f:
            return f.read()

    def _decode_segment(self, meta: SegmentMeta, decode):
        """Read one committed segment file and *decode* it (CRC checked).

        Callers look *decode* up at call time, so a wrapper patched onto
        its class (a profiler's, say) sees every decode.
        """
        try:
            data = self._read(self._root_prefix + meta.file)
        except FileNotFoundError:
            raise WarehouseError(
                f"committed segment {meta.seg_id} missing on disk: "
                f"{meta.file}") from None
        try:
            return decode(data)
        except ValueError as exc:
            raise WarehouseError(
                f"segment {meta.seg_id} ({meta.file}) damaged: {exc}") \
                from None

    def load_segment(self, meta: SegmentMeta) -> ProfileSet:
        """Decode one committed segment (CRC enforced by the codec)."""
        if meta.kind != "profile":
            raise WarehouseError(
                f"segment {meta.seg_id} holds {meta.kind!r}, not a "
                f"latency profile (use load_state)")
        pset = self._decode_segment(meta, ProfileSet.from_bytes)
        # Restore what the codec's one-float64-per-total rounding
        # dropped at commit time, so merges over this segment stay
        # sum-exact (see SegmentMeta.resid).
        for op, components in meta.resid:
            prof = pset.get(op)
            if prof is not None:
                prof.histogram.correct_total_latency(components)
        return pset

    def load_columns(self, meta: SegmentMeta) -> ColumnarSegment:
        """Decoded rows of one committed segment, through the cache.

        A hit is validated with one ``pread`` at the committed size: it
        counts only if exactly the four trailer bytes come back and
        they equal the cached entry's CRC (cache key = segment id +
        CRC).  A miss — or a file whose size or trailer no longer
        matches, or cannot be read — reads and decodes the file, CRC
        enforced.
        """
        cached = self._columns.get(meta.seg_id)
        if cached is not None:
            try:
                fd = os.open(self._root_prefix + meta.file, os.O_RDONLY)
                try:
                    # Eight bytes asked for: more than four back means
                    # the file grew past its committed size.
                    trailer = os.pread(fd, 8, meta.nbytes - 4)
                finally:
                    os.close(fd)
            except FileNotFoundError:
                raise WarehouseError(
                    f"committed segment {meta.seg_id} missing on disk: "
                    f"{meta.file}") from None
            except OSError:
                trailer = b""
            if len(trailer) == 4 and \
                    int.from_bytes(trailer, "little") == cached.crc:
                self.cache_hits_total += 1
                return cached
        cols = self._decode_segment(meta, ColumnarSegment.from_bytes)
        self._columns[meta.seg_id] = cols
        self.cache_misses_total += 1
        return cols

    def _invalidate_columns(self, metas) -> None:
        for meta in metas:
            self._columns.pop(meta.seg_id, None)

    def load_state(self, meta: SegmentMeta) -> StateProfile:
        """Decode one committed wait-state sample segment."""
        if meta.kind != "samples":
            raise WarehouseError(
                f"segment {meta.seg_id} holds {meta.kind!r}, not "
                f"wait-state samples (use load_segment)")
        return self._decode_segment(meta, StateProfile.from_bytes)

    def sources(self) -> List[str]:
        with self._lock:
            return self.index.sources()

    def segments(self, source: Optional[str] = None,
                 kind: Optional[str] = "profile") -> List[SegmentMeta]:
        """Live segment metas (all sources, or one), epoch order.

        ``kind`` defaults to latency segments; pass ``"samples"`` for
        the sampling family or ``None`` for every live segment.
        """
        with self._lock:
            sources = [source] if source is not None \
                else self.index.sources()
            out: List[SegmentMeta] = []
            for src in sources:
                out.extend(self.index.select(src, kind=kind))
            return out

    def query(self, source: str, layer: Optional[str] = None,
              op: Optional[str] = None, t0: Optional[int] = None,
              t1: Optional[int] = None) -> ProfileSet:
        """Merge everything stored for *source* in base epochs [t0, t1].

        A segment participates if its epoch window *intersects* the
        range, so over compacted history the effective bounds widen to
        the containing tier windows — time resolution coarsens with
        age, latency resolution never does.  The result is canonical
        (empty name, no attributes), byte-comparable with
        :meth:`ProfileSet.merged` over the equivalent raw segments.
        """
        with self._lock:
            metas = self.index.select(source, layer=layer, op=op,
                                      t0=t0, t1=t1)
            pairs = [(self.load_columns(meta), meta) for meta in metas]
        return merged_profile_set(
            ((cols, dict(meta.resid)) for cols, meta in pairs),
            layer=layer, op=op)

    def query_states(self, source: str, t0: Optional[int] = None,
                     t1: Optional[int] = None) -> StateProfile:
        """Merge the wait-state samples stored for *source* in [t0, t1].

        The sampling-family counterpart of :meth:`query`: cell counts
        add across segments in ``(epoch, seg_id)`` order, so the result
        is canonical and byte-comparable against
        :meth:`StateProfile.merged` over the same captures.
        """
        with self._lock:
            metas = self.index.select(source, t0=t0, t1=t1,
                                      kind="samples")
        return StateProfile.merged(self.load_state(meta)
                                   for meta in metas)

    def recent_psets(self, source: str, count: int) -> List[ProfileSet]:
        """The last *count* non-empty segments, oldest first.

        This is the service's warm-start path: the differential
        alerter's rolling baseline is seeded from stored history
        instead of starting blind after a restart.
        """
        if count < 1:
            return []
        with self._lock:
            metas = self.index.select(source)
        out: List[ProfileSet] = []
        for meta in reversed(metas):
            pset = self.load_segment(meta)
            if len(pset):
                out.append(pset)
                if len(out) == count:
                    break
        out.reverse()
        return out

    # -- compaction & retention ----------------------------------------------

    def compact(self, source: Optional[str] = None) -> List[SegmentMeta]:
        """Promote aged segments into coarser tiers; never drops data.

        Plans the whole tier cascade on metadata (:func:`plan_fixpoint`),
        so a long-idle warehouse catches up in one call, and writes only
        the super-segments that survive it: each is merged straight from
        the stored segments it covers, never through an intermediate
        tier.  The call commits like :meth:`ingest_many`: every
        super-segment file lands first, then all their records are
        journaled with one append, so a crash before the append commits
        nothing and leaves the files as orphans for :meth:`gc`.  Returns
        the new super-segment metas.
        """
        with self._lock:
            sources = [source] if source is not None \
                else self.index.sources()
            groups = [group for src in sources
                      for group in plan_fixpoint(self.index, src,
                                                 self.policy)]
            return self._compact_round(groups) if groups else []

    def _compact_round(self, groups: List[CompactionGroup]
                       ) -> List[SegmentMeta]:
        # Lock held.  Merge order is pinned by the plan's (epoch,
        # seg_id) sort and ids follow plan order, so equal histories
        # compact to identical bytes and journal lines.  Each output is
        # written as soon as it is encoded: the round keeps metas and
        # records, never payloads.
        metas: List[SegmentMeta] = []
        records = []
        for offset, group in enumerate(groups):
            merged = merged_profile_set(
                (self.load_columns(meta), dict(meta.resid))
                for meta in group.inputs)
            payload = merged.to_bytes()
            resid = []
            for prof in merged:
                components = prof.histogram.latency_residual()
                if components:
                    resid.append((prof.operation, tuple(components)))
            seg_id = self.index.next_id + offset
            meta = SegmentMeta(
                seg_id=seg_id, source=group.source, tier=group.tier,
                epoch=group.epoch, span=self.policy.span(group.tier),
                file=self._segment_file(group.source, group.tier,
                                        group.epoch, seg_id),
                nbytes=len(payload),
                ops=tuple(sorted((prof.layer, prof.operation)
                                 for prof in merged)),
                resid=tuple(sorted(resid)),
                crc=int.from_bytes(payload[-4:], "little"))
            self._write_segment(meta.file, payload)
            self._fire("warehouse.compact", "after-file")
            metas.append(meta)
            records.append(meta.to_record(
                inputs=tuple(m.seg_id for m in group.inputs)))
        self.log.append_many(records)
        self._fire("warehouse.compact", "after-log")
        for record in records:
            self.index.apply(record)
        for group in groups:
            self._invalidate_columns(group.inputs)
        self._sweep_dead()
        return metas

    def gc(self, source: Optional[str] = None) -> int:
        """Apply top-tier retention and sweep dead/orphan files.

        The only operation that discards committed data, and it says
        so: evictions are logged (one ``gc`` record), counted, and the
        count is returned.  Also removes files superseded by compaction
        and uncommitted orphans left by crashes.
        """
        with self._lock:
            sources = [source] if source is not None \
                else self.index.sources()
            victims: List[SegmentMeta] = []
            for src in sources:
                victims.extend(plan_gc(self.index, src, self.policy))
            if victims:
                record = {"rec": "gc",
                          "ids": sorted(m.seg_id for m in victims)}
                self.log.append(record)
                self.index.apply(record)
                self._invalidate_columns(victims)
            self._sweep_dead()
            self._sweep_orphans()
            return len(victims)

    def _sweep_dead(self) -> None:
        # Lock held.  Unlink files the log already declared dead;
        # idempotent, so a crash between commit and unlink just leaves
        # work for the next sweep.  Mirror copies die with their
        # primaries.
        for rel in list(self.index.dead_files):
            durable.unlink(self._root_prefix + rel)
            if self.mirror is not None:
                durable.unlink(self._mirror_prefix + rel)
            self.index.dead_files.discard(rel)

    def _sweep_orphans(self) -> None:
        # Lock held.  A file under segments/ that no live meta claims
        # is either committed-dead (already handled) or a crash orphan
        # whose commit record never landed — per the log it does not
        # exist, so remove it.  The mirror tree is swept by the same
        # rule, so an orphaned mirror copy cannot outlive its segment.
        live = self.index.live_files()
        roots = [self.root] if self.mirror is None \
            else [self.root, self.mirror]
        for root in roots:
            for path in (root / "segments").rglob(f"*{_SUFFIX}"):
                rel = path.relative_to(root).as_posix()
                if rel not in live and durable.unlink(path):
                    self.orphans_removed += 1

    # -- scrub & repair ------------------------------------------------------

    def _verify_payload(self, meta: SegmentMeta,
                        data: bytes) -> Optional[str]:
        """Why *data* is not the committed payload (``None`` if it is)."""
        if len(data) != meta.nbytes:
            return f"size {len(data)} != committed {meta.nbytes}"
        if meta.crc is not None and \
                int.from_bytes(data[-4:], "little") != meta.crc:
            return "CRC trailer differs from the committed record"
        # parse_binary runs every check ProfileSet.from_bytes does,
        # without folding a set that would be thrown away.
        decode = StateProfile.from_bytes if meta.kind == "samples" \
            else parse_binary
        try:
            decode(data)
        except ValueError as exc:
            return str(exc)
        return None

    def _verify_segment(self, meta: SegmentMeta) -> Optional[str]:
        try:
            data = self._read(self._root_prefix + meta.file)
        except OSError:
            return "missing from disk"
        return self._verify_payload(meta, data)

    def scrub(self, repair: bool = False) -> ScrubReport:
        """Re-verify every committed byte in place; optionally repair.

        Walks every live segment file and re-checks it against what the
        commit log promised — exact size, CRC-32 trailer (for records
        that carry one), and a full codec decode — plus every journal
        frame CRC.  A file that fails is *quarantined*: renamed to
        ``<file>.quarantined`` so it stops matching the sweep glob and
        survives as forensics evidence, while the damage can no longer
        be served.  With ``repair=True`` and a mirror tree attached,
        each quarantined segment is restored from its mirror copy after
        the mirror bytes pass the same verification — restoration is
        byte-identical or it does not happen.

        Counters accumulate on the instance
        (``scrub_{scanned,corrupt,repaired}_total``); the returned
        :class:`ScrubReport` covers this pass only, and
        :attr:`ScrubReport.clean` is the CLI's exit-0 condition.
        """
        report = ScrubReport()
        with self._lock:
            report.journal_records, report.journal_bad_bytes = \
                self.log.verify()
            if report.journal_bad_bytes:
                report.issues.append(
                    f"wal.log: {report.journal_bad_bytes} distrusted "
                    f"tail byte(s) after {report.journal_records} good "
                    f"record(s)")
            metas = [meta for src in self.index.sources()
                     for meta in self.index.select(src, kind=None)]
            for meta in metas:
                report.scanned += 1
                reason = self._verify_segment(meta)
                if reason is None:
                    continue
                report.corrupt += 1
                path = self.root / meta.file
                quarantined = path.with_name(
                    path.name + _QUARANTINE_SUFFIX)
                if path.exists():
                    durable.replace(path, quarantined)
                self._invalidate_columns([meta])
                detail = f"segment {meta.seg_id} ({meta.file}): {reason}"
                if repair and self.mirror is not None:
                    restored = self._restore_from_mirror(meta, quarantined)
                    if restored is None:
                        report.repaired += 1
                        report.issues.append(f"{detail} — repaired "
                                             f"from mirror")
                        continue
                    detail += f"; mirror copy unusable: {restored}"
                report.issues.append(detail)
            self.scrub_scanned_total += report.scanned
            self.scrub_corrupt_total += report.corrupt
            self.scrub_repaired_total += report.repaired
        return report

    def _restore_from_mirror(self, meta: SegmentMeta,
                             quarantined: Path) -> Optional[str]:
        # Lock held.  Returns None on success, else why the mirror copy
        # was rejected.  The mirror bytes must pass the exact checks
        # the primary just failed before they are promoted.
        try:
            data = self._read(self._mirror_prefix + meta.file)
        except OSError:
            return "missing from mirror tree"
        reason = self._verify_payload(meta, data)
        if reason is not None:
            return reason
        durable.write_atomic(self.root / meta.file, data)
        durable.unlink(quarantined)
        return None

    # -- named baselines -----------------------------------------------------

    def _baseline_path(self, name: str) -> Path:
        return self.root / "baselines" / f"{_check_name('baseline', name)}" \
            f"{_SUFFIX}"

    def save_baseline(self, name: str, pset: ProfileSet) -> None:
        """Store a named reference profile (atomic overwrite)."""
        path = self._baseline_path(name)
        self._write_atomic(path.relative_to(self.root).as_posix(),
                           pset.to_bytes())

    def load_baseline(self, name: str) -> ProfileSet:
        path = self._baseline_path(name)
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            raise WarehouseError(
                f"no baseline named {name!r} (have: "
                f"{', '.join(self.baselines()) or 'none'})") from None
        try:
            return ProfileSet.from_bytes(data)
        except ValueError as exc:
            raise WarehouseError(f"baseline {name!r} damaged: {exc}") \
                from None

    def baselines(self) -> List[str]:
        base = self.root / "baselines"
        return sorted(p.stem for p in base.glob(f"*{_SUFFIX}"))

    def remove_baseline(self, name: str) -> bool:
        return durable.unlink(self._baseline_path(name))

    def __repr__(self) -> str:
        return (f"<Warehouse {str(self.root)!r} "
                f"segments={len(self.index)} "
                f"sources={len(self.sources())}>")
