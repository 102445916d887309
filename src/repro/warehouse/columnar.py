"""Columnar decode and merge for warehouse segments.

Decoding every segment into a full
:class:`~repro.core.profileset.ProfileSet` — one ``Profile`` +
``LatencyBuckets`` object pair per operation, one dict entry per bucket
— and then merging dict-of-dict histograms is fine for a single
capture, but a fleet warehouse answers range queries over hundreds of
segments, and the object churn dominates.

:class:`ColumnarSegment` decodes the same ``OSPROFB1`` payload (CRC and
Section-4 checksums still enforced) straight into flat columns:

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

import struct
import zlib
from array import array
from typing import Dict, Iterable, List, Optional, Tuple

from ..core.buckets import (MAX_BUCKET, BucketSpec, LatencyBuckets,
                            _grow_expansion)
from ..core.profile import Profile
from ..core.profileset import _BINARY_MAGIC, ProfileSet

__all__ = ["ColumnarSegment", "group_histogram", "merged_profile_set"]

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_QDB = struct.Struct("<QdB")
_F64 = struct.Struct("<d")

#: Interleaved (u16 bucket, u64 count) bulk formats, cached per length.
_PAIR_FMTS: Dict[int, str] = {}


def _truncated(wanted: int, pos: int, left: int) -> ValueError:
    return ValueError(
        f"truncated binary profile: wanted {wanted} bytes at offset "
        f"{pos}, only {left} left")


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

        Enforces exactly what ``ProfileSet.from_bytes`` enforces — the
        magic, the CRC-32 trailer, bucket ranges, duplicate ops and
        buckets, the counts-sum-to-total_ops checksum, and a clean end
        of payload — but touches no ``Profile``/``LatencyBuckets``
        objects: strings are sliced once, numeric columns land in
        ``array`` buffers via bulk ``struct.unpack_from``.
        """
        if not isinstance(data, (bytes, bytearray, memoryview)):
            raise ValueError("binary profile must be a bytes-like object")
        data = bytes(data)
        if not data.startswith(_BINARY_MAGIC):
            raise ValueError(
                f"not a binary osprof profile: magic {data[:8]!r}")
        if len(data) < len(_BINARY_MAGIC) + 4:
            raise ValueError("truncated binary profile: missing trailer")
        end = len(data) - 4
        (declared_crc,) = _U32.unpack_from(data, end)
        with memoryview(data) as view:
            actual_crc = zlib.crc32(view[len(_BINARY_MAGIC):end]) & 0xFFFFFFFF
        if declared_crc != actual_crc:
            raise ValueError(
                f"binary profile CRC mismatch: trailer says "
                f"{declared_crc:#010x}, payload hashes to {actual_crc:#010x}")

        cols = cls()
        cols.crc = declared_crc
        cols.nbytes = len(data)
        pos = len(_BINARY_MAGIC)

        def read_str(pos: int) -> Tuple[str, int]:
            if pos + 2 > end:
                raise _truncated(2, pos, end - pos)
            (n,) = _U16.unpack_from(data, pos)
            pos += 2
            if pos + n > end:
                raise _truncated(n, pos, end - pos)
            return data[pos:pos + n].decode("utf-8"), pos + n

        if pos + 1 > end:
            raise _truncated(1, pos, end - pos)
        resolution = data[pos]
        pos += 1
        try:
            BucketSpec(resolution)
        except ValueError as exc:
            raise ValueError(f"bad binary profile header: {exc}") from None
        cols.resolution = resolution
        cols.name, pos = read_str(pos)
        if pos + 2 > end:
            raise _truncated(2, pos, end - pos)
        (nattrs,) = _U16.unpack_from(data, pos)
        pos += 2
        for _ in range(nattrs):
            key, pos = read_str(pos)
            cols.attributes[key], pos = read_str(pos)
        if pos + 4 > end:
            raise _truncated(4, pos, end - pos)
        (nprofiles,) = _U32.unpack_from(data, pos)
        pos += 4

        seen = set()
        for _ in range(nprofiles):
            operation, pos = read_str(pos)
            layer, pos = read_str(pos)
            if operation in seen:
                raise ValueError(f"duplicate op block {operation!r}")
            seen.add(operation)
            if pos + _QDB.size > end:
                raise _truncated(_QDB.size, pos, end - pos)
            total_ops, total_latency, flags = _QDB.unpack_from(data, pos)
            pos += _QDB.size
            min_latency = max_latency = None
            if flags & 1:
                if pos + 8 > end:
                    raise _truncated(8, pos, end - pos)
                (min_latency,) = _F64.unpack_from(data, pos)
                pos += 8
            if flags & 2:
                if pos + 8 > end:
                    raise _truncated(8, pos, end - pos)
                (max_latency,) = _F64.unpack_from(data, pos)
                pos += 8
            if pos + 4 > end:
                raise _truncated(4, pos, end - pos)
            (nbuckets,) = _U32.unpack_from(data, pos)
            pos += 4
            nraw = nbuckets * 10
            if pos + nraw > end:
                raise _truncated(nraw, pos, end - pos)
            if nbuckets:
                fmt = _PAIR_FMTS.get(nbuckets)
                if fmt is None:
                    fmt = _PAIR_FMTS.setdefault(nbuckets,
                                                "<" + "HQ" * nbuckets)
                vals = struct.unpack_from(fmt, data, pos)
                pos += nraw
                ids = vals[0::2]
                cnts = vals[1::2]
                if max(ids) > MAX_BUCKET:
                    raise ValueError(
                        f"bad op {operation!r}: bucket index "
                        f"{max(ids)} out of range")
                if any(ids[k] >= ids[k + 1] for k in range(nbuckets - 1)):
                    # Canonical encodings are strictly ascending; accept
                    # an unsorted (but duplicate-free) stream the way
                    # the object decoder does.
                    if len(set(ids)) != nbuckets:
                        dup = sorted(b for b in set(ids)
                                     if ids.count(b) > 1)[0]
                        raise ValueError(
                            f"duplicate bucket {dup} in op {operation!r}")
                    pairs = sorted(zip(ids, cnts))
                    ids = tuple(p[0] for p in pairs)
                    cnts = tuple(p[1] for p in pairs)
                if sum(cnts) != total_ops:
                    raise ValueError(
                        f"bad op {operation!r}: checksum mismatch: bucket "
                        f"counts sum to {sum(cnts)}, header says "
                        f"{total_ops}")
                cols.bucket_ids.extend(ids)
                cols.bucket_counts.extend(cnts)
            elif total_ops:
                raise ValueError(
                    f"bad op {operation!r}: checksum mismatch: bucket "
                    f"counts sum to 0, header says {total_ops}")
            cols.ops.append(operation)
            cols.layers.append(layer)
            cols.total_ops.append(total_ops)
            cols.enc_total.append(total_latency)
            cols.mins.append(min_latency)
            cols.maxs.append(max_latency)
            cols.row_start.append(len(cols.bucket_ids))
        if pos != end:
            raise ValueError(
                f"{end - pos} trailing bytes after the last profile")
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
            hist._counts = {ids[j]: cnts[j]
                            for j in range(starts[i], starts[i + 1])
                            if cnts[j]}
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
    """Merge state for one operation across segments (first layer wins)."""

    __slots__ = ("layer", "nops", "partials", "dense", "mn", "mx")

    def __init__(self, layer: str):
        self.layer = layer
        self.nops = 0
        self.partials: List[float] = []
        self.dense = [0] * (MAX_BUCKET + 1)
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
            for j in range(starts[i], starts[i + 1]):
                dense[ids[j]] += cnts[j]
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
        hist._counts = {b: c for b, c in enumerate(acc.dense) if c}
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
