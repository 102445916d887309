"""Cached decode and merge for warehouse segments.

A fleet warehouse answers range queries over hundreds of small
segments, so what a query pays per segment — a read, a decode, a fold —
costs more than the merge arithmetic.  :class:`ColumnarSegment` holds
one segment decoded once, as the checked rows of
:func:`~repro.core.profileset.parse_binary` (the one decoder of the
binary format, so CRC, Section-4 checksums and every other check are
shared with ``ProfileSet.from_bytes``); the warehouse caches it per
segment id and CRC.  :func:`merged_profile_set` folds any number of
cached segments, with their commit-log latency residuals, through
:meth:`~repro.core.profileset.ProfileSet.fold_rows` — the same fold
service ingest uses.

The result is **byte-identical** to ``ProfileSet.merged`` over the
same segments decoded by ``Warehouse.load_segment`` (the tests'
oracle).  The equivalence argument: bucket counts and op totals are
integer sums (order-free); min/max are plain comparisons; and the exact
latency total is carried as a Shewchuk expansion grown with error-free
two-sums, so *any* fold order represents the same exact real number,
and ``math.fsum`` rounds that number identically no matter which path
built the expansion.

The names ``ColumnarSegment`` and ``merged_profile_set`` outlive the
columns they were named for: the benchmark's tracer wraps them by name
to report its ``warehouse.columnar.*`` metrics.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..core.buckets import BucketSpec, _grow_expansion
from ..core.profileset import ProfileSet, Row, parse_binary

__all__ = ["ColumnarSegment", "merged_profile_set"]


class ColumnarSegment:
    """One decoded segment: its header fields and ``parse_binary`` rows.

    Shared by every query once cached (the warehouse keys instances by
    segment id + CRC), so nothing may mutate it or its rows.  ``crc``
    is the codec trailer of the bytes this was decoded from — the cache
    validity token — and ``nbytes`` their length.
    """

    __slots__ = ("resolution", "name", "attributes", "rows", "crc",
                 "nbytes")

    def __init__(self, resolution: int, name: str,
                 attributes: Dict[str, str], rows: List[Row], crc: int,
                 nbytes: int):
        self.resolution = resolution
        self.name = name
        self.attributes = attributes
        self.rows = rows
        self.crc = crc
        self.nbytes = nbytes

    @classmethod
    def from_bytes(cls, data) -> "ColumnarSegment":
        """Decode one ``OSPROFB1`` payload (checked like
        ``ProfileSet.from_bytes``, which parses it the same way)."""
        crc, spec, name, attributes, rows = parse_binary(data)
        return cls(spec.resolution, name, attributes, rows, crc,
                   memoryview(data).nbytes)

    def to_profile_set(self) -> ProfileSet:
        """Rebuild the ``ProfileSet`` this segment encodes.

        Equal (and byte-identical on re-encode) to
        ``ProfileSet.from_bytes`` over the original payload.
        """
        pset = ProfileSet(name=self.name, spec=BucketSpec(self.resolution),
                          attributes=self.attributes)
        pset.fold_rows(self.rows)
        return pset

    def __repr__(self) -> str:
        return (f"<ColumnarSegment rows={len(self.rows)} "
                f"crc={self.crc:#010x}>")


def merged_profile_set(
        segments: Iterable[Tuple[ColumnarSegment,
                                 Dict[str, Tuple[float, ...]]]],
        layer: Optional[str] = None, op: Optional[str] = None,
        name: str = "") -> ProfileSet:
    """Merge cached segments into one canonical ``ProfileSet``.

    *segments* yields ``(segment, residuals)`` pairs in the
    deterministic ``(epoch, seg_id)`` order the index selects;
    *residuals* is the segment's commit-record latency-residual map
    (``op -> components``, see ``SegmentMeta.resid``), folded into the
    exact total exactly as ``Warehouse.load_segment`` folds it: each
    op's expansion grows by a segment's decoded total, then by that
    segment's components.  ``layer``/``op`` restrict the merge the way
    ``Warehouse.query`` filters do.  The result is byte-identical to
    ``ProfileSet.merged`` over the equivalent ``load_segment`` decodes:
    empty name and attributes, spec from the first segment, first-seen
    layer per operation, operations and buckets in ascending order.
    """
    out: Optional[ProfileSet] = None
    for cols, resid in segments:
        if out is None:
            out = ProfileSet(name=name, spec=BucketSpec(cols.resolution))
            profiles = out._profiles
        elif cols.resolution != out.spec.resolution:
            raise ValueError(
                "profile resolution differs from set resolution")
        rows = cols.rows
        if op is not None or layer is not None:
            rows = [row for row in rows
                    if (op is None or row[0] == op)
                    and (layer is None or row[1] == layer)]
        out.fold_rows(rows)
        if resid:
            for row in rows:
                components = resid.get(row[0])
                if components:
                    partials = profiles[row[0]].histogram._latency_partials
                    for c in components:
                        _grow_expansion(partials, c)
    if out is None:
        return ProfileSet(name=name)
    out._profiles = {operation: profiles[operation]
                     for operation in sorted(profiles)}
    for prof in profiles.values():
        hist = prof.histogram
        hist._counts = dict(sorted(hist._counts.items()))
    return out
