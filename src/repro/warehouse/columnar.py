"""Columnar decode and merge for warehouse segments.

Decoding every segment into a full
:class:`~repro.core.profileset.ProfileSet` — one ``Profile`` +
``LatencyBuckets`` object pair per operation, one dict entry per bucket
— and then merging dict-of-dict histograms is fine for a single
capture, but a fleet warehouse answers range queries over hundreds of
segments, and the object churn dominates.

:class:`ColumnarSegment` decodes the same ``OSPROFB1`` payload through
the same parse as ``ProfileSet.from_bytes``
(:func:`~repro.core.profileset.parse_binary`, so CRC, Section-4
checksums and every other check are shared) straight into flat columns:

* per-row ``ops`` / ``layers`` string lists (one row per operation),
* ``total_ops`` (``array('Q')``) and the encoded ``total_latency``
  (``array('d')``) columns,
* optional per-row ``mins`` / ``maxs``,
* one shared CSR-style postings matrix — ``bucket_ids``
  (``array('H')``) and ``bucket_counts`` (``array('Q')``) with a
  ``row_start`` offset column — holding every (bucket, count) pair of
  the segment contiguously.

:func:`merged_profile_set` then merges any number of columnar segments
(with their commit-log latency residuals) into a ``ProfileSet`` that is
**byte-identical** to what ``ProfileSet.merged`` produces over the
same segments decoded by ``Warehouse.load_segment`` (the tests'
oracle).  The equivalence argument: bucket counts and op totals are
integer sums (order-free); min/max are plain comparisons; and the exact
latency total is carried as a Shewchuk expansion grown with error-free
two-sums, so *any* fold order represents the same exact real number,
and ``math.fsum`` rounds that number identically no matter which path
built the expansion.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..core.buckets import (MAX_BUCKET, BucketSpec, LatencyBuckets,
                            _grow_expansion)
from ..core.profile import Profile
from ..core.profileset import ProfileSet, parse_binary

__all__ = ["ColumnarSegment", "group_histogram", "merged_profile_set"]


class ColumnarSegment:
    """One decoded segment as flat columns plus a shared bucket matrix.

    Immutable once built; safe to share across queries (the warehouse
    caches instances keyed by segment id + CRC).  ``crc`` is the codec
    trailer of the bytes this was decoded from — the cache validity
    token — and ``nbytes`` their length.
    """

    __slots__ = ("resolution", "name", "attributes", "ops", "layers",
                 "total_ops", "enc_total", "mins", "maxs", "row_start",
                 "bucket_ids", "bucket_counts", "crc", "nbytes")

    def __init__(self):
        self.resolution = 1
        self.name = ""
        self.attributes: Dict[str, str] = {}
        self.ops: List[str] = []
        self.layers: List[str] = []
        self.total_ops = array("Q")
        self.enc_total = array("d")
        self.mins: List[Optional[float]] = []
        self.maxs: List[Optional[float]] = []
        self.row_start = array("L", [0])
        self.bucket_ids = array("H")
        self.bucket_counts = array("Q")
        self.crc = 0
        self.nbytes = 0

    @property
    def nrows(self) -> int:
        return len(self.ops)

    def row_buckets(self, i: int) -> Tuple[memoryview, memoryview]:
        """Zero-copy ``(bucket_ids, counts)`` views of row *i*."""
        a, b = self.row_start[i], self.row_start[i + 1]
        return (memoryview(self.bucket_ids)[a:b],
                memoryview(self.bucket_counts)[a:b])

    # -- decoding ------------------------------------------------------------

    @classmethod
    def from_bytes(cls, data) -> "ColumnarSegment":
        """Decode one ``OSPROFB1`` payload into columns.

        The payload goes through the same parse as
        ``ProfileSet.from_bytes`` (:func:`~repro.core.profileset.
        parse_binary`), so it is checked and rejected identically; the
        rows land in ``array`` buffers instead of ``Profile`` objects.
        """
        crc, spec, name, attributes, rows = parse_binary(data)
        cols = cls()
        cols.crc = crc
        cols.nbytes = memoryview(data).nbytes
        cols.resolution = spec.resolution
        cols.name = name
        cols.attributes = attributes
        for (operation, layer, total_ops, total_latency, min_latency,
             max_latency, ids, cnts) in rows:
            cols.ops.append(operation)
            cols.layers.append(layer)
            cols.total_ops.append(total_ops)
            cols.enc_total.append(total_latency)
            cols.mins.append(min_latency)
            cols.maxs.append(max_latency)
            cols.bucket_ids.extend(ids)
            cols.bucket_counts.extend(cnts)
            cols.row_start.append(len(cols.bucket_ids))
        return cols

    # -- reconstruction ------------------------------------------------------

    def to_profile_set(self) -> ProfileSet:
        """Rebuild the ``ProfileSet`` this segment encodes.

        Equal (and byte-identical on re-encode) to
        ``ProfileSet.from_bytes`` over the original payload.
        """
        spec = BucketSpec(self.resolution)
        pset = ProfileSet(name=self.name, spec=spec,
                          attributes=self.attributes)
        ids, cnts, starts = self.bucket_ids, self.bucket_counts, \
            self.row_start
        for i, operation in enumerate(self.ops):
            prof = Profile(operation, self.layers[i], spec)
            hist = prof.histogram
            a, b = starts[i], starts[i + 1]
            hist._counts = dict(zip(ids[a:b], cnts[a:b]))
            hist.total_ops = self.total_ops[i]
            hist.total_latency = self.enc_total[i]
            hist.min_latency = self.mins[i]
            hist.max_latency = self.maxs[i]
            pset._profiles[operation] = prof
        return pset

    def __repr__(self) -> str:
        return (f"<ColumnarSegment rows={self.nrows} "
                f"pairs={len(self.bucket_ids)} crc={self.crc:#010x}>")


class _OpAccumulator:
    """Merge state for one operation across segments (first layer wins).

    ``dense`` is the adder, one slot per bucket id; ``seen`` holds the
    ids added into, so the finish walks only those instead of every
    slot.
    """

    __slots__ = ("layer", "nops", "partials", "dense", "seen", "mn", "mx")

    def __init__(self, layer: str):
        self.layer = layer
        self.nops = 0
        self.partials: List[float] = []
        self.dense = [0] * (MAX_BUCKET + 1)
        self.seen: Set[int] = set()
        self.mn: Optional[float] = None
        self.mx: Optional[float] = None


def merged_profile_set(
        segments: Iterable[Tuple[ColumnarSegment,
                                 Dict[str, Tuple[float, ...]]]],
        layer: Optional[str] = None, op: Optional[str] = None,
        name: str = "") -> ProfileSet:
    """Merge columnar segments into one canonical ``ProfileSet``.

    *segments* yields ``(columns, residuals)`` pairs in the
    deterministic ``(epoch, seg_id)`` order the index selects;
    *residuals* is the segment's commit-record latency-residual map
    (``op -> components``, see ``SegmentMeta.resid``), folded into the
    exact total exactly as ``Warehouse.load_segment`` folds it.
    ``layer``/``op`` restrict the merge the way ``Warehouse.query``
    filters do.  The result is byte-identical to ``ProfileSet.merged``
    over the equivalent ``load_segment`` decodes: empty name and
    attributes, spec from the first segment, first-seen layer per
    operation.
    """
    accs: Dict[str, _OpAccumulator] = {}
    resolution: Optional[int] = None
    for cols, resid in segments:
        if resolution is None:
            resolution = cols.resolution
        elif cols.resolution != resolution:
            raise ValueError(
                "profile resolution differs from set resolution")
        ids, cnts, starts = cols.bucket_ids, cols.bucket_counts, \
            cols.row_start
        for i, operation in enumerate(cols.ops):
            if op is not None and operation != op:
                continue
            if layer is not None and cols.layers[i] != layer:
                continue
            acc = accs.get(operation)
            if acc is None:
                acc = accs[operation] = _OpAccumulator(cols.layers[i])
            acc.nops += cols.total_ops[i]
            _grow_expansion(acc.partials, cols.enc_total[i])
            components = resid.get(operation)
            if components:
                for c in components:
                    _grow_expansion(acc.partials, c)
            dense = acc.dense
            a, b = starts[i], starts[i + 1]
            for j in range(a, b):
                dense[ids[j]] += cnts[j]
            acc.seen.update(ids[a:b])
            mn = cols.mins[i]
            if mn is not None and (acc.mn is None or mn < acc.mn):
                acc.mn = mn
            mx = cols.maxs[i]
            if mx is not None and (acc.mx is None or mx > acc.mx):
                acc.mx = mx
    spec = BucketSpec(resolution) if resolution is not None \
        else BucketSpec()
    out = ProfileSet(name=name, spec=spec)
    for operation in sorted(accs):
        acc = accs[operation]
        prof = Profile(operation, acc.layer, spec)
        hist = prof.histogram
        # Decoded counts are never zero, so every seen slot is non-zero.
        dense = acc.dense
        hist._counts = {b: dense[b] for b in sorted(acc.seen)}
        hist.total_ops = acc.nops
        hist._latency_partials = acc.partials
        hist.min_latency = acc.mn
        hist.max_latency = acc.mx
        out._profiles[operation] = prof
    return out


def group_histogram(counts: Dict[int, int],
                    spec: Optional[BucketSpec] = None) -> LatencyBuckets:
    """A bare histogram over sparse *counts* (for metric evaluation).

    Totals are left at the counts sum / zero latency — callers
    (the SQL engine's distribution aggregates) only consume the bucket
    vector, never the latency totals.
    """
    hist = LatencyBuckets(spec)
    hist._counts = {int(b): int(c) for b, c in counts.items() if c}
    hist.total_ops = sum(hist._counts.values())
    return hist
