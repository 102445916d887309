"""The warehouse's merge engine before segments were cached as rows.

This is the parent code of the rows-and-``fold_rows`` engine, kept
verbatim as a test oracle: ``ColumnarSegment.from_bytes`` decoded each
segment into CSR-style columns (``array`` buffers with a shared
``bucket_ids``/``bucket_counts`` matrix and a ``row_start`` offset
column), and ``merged_profile_set`` folded those columns op by op
through ``_OpAccumulator``, growing each op's Shewchuk expansion with
the decoded total and then the segment's residual components, segment
by segment.  ``tests/warehouse/test_merge_oracle.py`` requires the
production engine to match it in bytes, in every op's latency partials
and in every op's ``latency_residual()``.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.buckets import MAX_BUCKET, BucketSpec, _grow_expansion
from repro.core.profile import Profile
from repro.core.profileset import ProfileSet, parse_binary


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
