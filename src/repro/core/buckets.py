"""Logarithmic latency buckets: the aggregate statistics library.

This module is the Python equivalent of the paper's 141-line C
``aggregate_stats`` library (Section 4).  Latencies, measured in CPU
cycles, are sorted at record time into logarithmic buckets:

    bucket(latency) = floor(r * log2(latency))

where ``r`` is the profile *resolution* (the paper always used ``r = 1``
and notes that ``r = 2`` would double the bucket density at negligible
cost).  Bucket ``b`` therefore holds all requests whose latency lies in
``[2**(b/r), 2**((b+1)/r))`` cycles.

Logarithmic bucketing implements the non-linear filtering of Section 3:
``log(t_max + eps) ~= log(t_max)``, so each bucket isolates the dominant
latency contributor of one execution path, and distinct paths appear as
distinct peaks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

__all__ = [
    "BucketSpec",
    "LatencyBuckets",
    "DEFAULT_RESOLUTION",
    "MAX_BUCKET",
]

#: The paper always profiles with resolution 1 (one bucket per power of two).
DEFAULT_RESOLUTION = 1

#: A 64-bit cycle counter "can count for a century without overflowing"
#: (Section 4); 64 buckets at r=1 therefore cover every possible latency.
MAX_BUCKET = 64 * 8  # generous cap even for r = 8


class BucketSpec:
    """Mapping between latencies (in cycles) and logarithmic bucket indices.

    A ``BucketSpec`` is immutable and shared between all histograms of a
    profile set so that their buckets are directly comparable.
    """

    __slots__ = ("resolution",)

    def __init__(self, resolution: int = DEFAULT_RESOLUTION):
        if not isinstance(resolution, int) or resolution < 1:
            raise ValueError("resolution must be a positive integer")
        if resolution > 8:
            raise ValueError("resolution > 8 wastes memory without benefit")
        self.resolution = resolution

    def bucket(self, latency: float) -> int:
        """Return the bucket index for a latency in cycles.

        Latencies below one cycle (including zero) land in bucket 0: the
        hardware counter cannot resolve sub-cycle intervals, mirroring the
        C library where a zero-delta TSC read increments the first bucket.
        """
        if latency < 1:
            return 0
        if self.resolution == 1:
            # Exact floor(log2): frexp is a bit-scan, immune to the
            # rounding of math.log2 near bucket boundaries (the C
            # library uses bsr for the same reason).
            _, exponent = math.frexp(latency)
            return min(exponent - 1, MAX_BUCKET)
        b = int(self.resolution * math.log2(latency))
        return min(b, MAX_BUCKET)

    def low(self, bucket: int) -> float:
        """Inclusive lower latency bound of *bucket*, in cycles."""
        if bucket < 0:
            raise ValueError("bucket index must be non-negative")
        return 2.0 ** (bucket / self.resolution)

    def high(self, bucket: int) -> float:
        """Exclusive upper latency bound of *bucket*, in cycles."""
        return 2.0 ** ((bucket + 1) / self.resolution)

    def mid(self, bucket: int) -> float:
        """Representative (geometric-mean biased) latency of *bucket*.

        The paper uses ``3/2 * 2**b`` as the average latency of bucket
        ``b`` at r=1 (Section 3.3: "the average latency of bucket b is
        equal to t_cpu = 3/2 * 2**b"); we generalize to arbitrary r as the
        arithmetic middle of the bucket's span.
        """
        return (self.low(bucket) + self.high(bucket)) / 2.0

    def label(self, bucket: int, hz: float = 1.7e9) -> str:
        """Human-readable time label for a bucket boundary.

        ``hz`` converts cycles to seconds; the default matches the paper's
        1.7 GHz Pentium 4 so that labels line up with the figures
        (bucket 5 ~ 28 ns, bucket 10 ~ 903 ns, ...).
        """
        seconds = self.low(bucket) / hz
        return format_seconds(seconds)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BucketSpec) and other.resolution == self.resolution

    def __hash__(self) -> int:
        return hash(("BucketSpec", self.resolution))

    def __repr__(self) -> str:
        return f"BucketSpec(resolution={self.resolution})"


def format_seconds(seconds: float) -> str:
    """Format a duration the way the paper's figure labels do (28ns, 903ns, 28us...)."""
    if seconds < 1e-6:
        return f"{seconds * 1e9:.0f}ns"
    if seconds < 1e-3:
        return f"{seconds * 1e6:.0f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.0f}ms"
    return f"{seconds:.1f}s"


def _grow_expansion(partials: List[float], x: float) -> None:
    """Add *x* to a Shewchuk expansion, keeping the sum exact.

    ``partials`` is a list of non-overlapping floats whose mathematical
    sum equals the true (infinitely precise) running total.  Growing it
    with two-sums is error-free, so the represented total does not
    depend on the order values arrive in — the property that makes
    merged profiles byte-identical no matter how many concurrent
    collectors contributed (same trick as ``math.fsum``).
    """
    i = 0
    for y in partials:
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        lo = y - (hi - x)
        if lo:
            partials[i] = lo
            i += 1
        x = hi
    partials[i:] = [x]


@dataclass
class BucketStats:
    """Summary of one bucket: index, count and the spec-derived bounds."""

    index: int
    count: int
    low: float
    high: float


class LatencyBuckets:
    """A growable logarithmic histogram of request latencies.

    This is one "profile" in the paper's terminology: a small array of
    counters, one per log2 bucket, plus running totals used both for
    analysis (total latency sorting) and for consistency checking
    (Section 4: "aggregate_stats maintains checksums of the number of
    time measurements").
    """

    __slots__ = ("spec", "_counts", "total_ops", "_latency_partials",
                 "min_latency", "max_latency")

    def __init__(self, spec: Optional[BucketSpec] = None):
        self.spec = spec if spec is not None else BucketSpec()
        self._counts: Dict[int, int] = {}
        self.total_ops = 0
        self._latency_partials: List[float] = []
        self.min_latency: Optional[float] = None
        self.max_latency: Optional[float] = None

    @property
    def total_latency(self) -> float:
        """Exact sum of all recorded latencies, in cycles.

        Internally an error-free float expansion, so the value is
        independent of the order in which samples were added or
        histograms were merged — two profiles holding the same samples
        always serialize to identical bytes.
        """
        return math.fsum(self._latency_partials)

    @total_latency.setter
    def total_latency(self, value: float) -> None:
        self._latency_partials = [float(value)]

    # -- recording ---------------------------------------------------------

    def add(self, latency: float, count: int = 1) -> int:
        """Record *count* requests of the given latency; return the bucket hit."""
        if count < 1:
            raise ValueError("count must be >= 1")
        if latency < 0:
            raise ValueError("latency must be non-negative")
        b = self.spec.bucket(latency)
        self._counts[b] = self._counts.get(b, 0) + count
        self.total_ops += count
        _grow_expansion(self._latency_partials, latency * count)
        if self.min_latency is None or latency < self.min_latency:
            self.min_latency = latency
        if self.max_latency is None or latency > self.max_latency:
            self.max_latency = latency
        return b

    def add_many(self, latencies: Iterable[float]) -> None:
        """Record a batch of latencies: the pipeline's flush hot path.

        Exactly equivalent to calling :meth:`add` once per latency — the
        same buckets, totals, extrema, and (because the running total is
        an exact expansion) the same serialized bytes — but considerably
        faster: bucketing is done inline with ``int.bit_length`` (the
        Python spelling of the C library's ``bsr``) and the expansion
        growth is unrolled into the loop, so each sample costs zero
        function calls instead of the per-sample path's several.
        """
        if not isinstance(latencies, list):
            latencies = list(latencies)
        if not latencies:
            return
        counts = self._counts
        partials = self._latency_partials
        counts_get = counts.get
        fast = self.spec.resolution == 1
        bucket_of = self.spec.bucket
        for lat in latencies:
            if lat < 1.0:
                if lat < 0.0:
                    raise ValueError("latency must be non-negative")
                b = 0
            elif fast:
                # floor(log2): truncation to int never crosses a power
                # of two downward, so bit_length-1 equals the frexp
                # exponent used by the per-sample path.
                b = int(lat).bit_length() - 1
                if b > MAX_BUCKET:
                    b = MAX_BUCKET
            else:
                b = bucket_of(lat)
            counts[b] = counts_get(b, 0) + 1
            # _grow_expansion, unrolled: error-free two-sums keep the
            # running total exact, hence order-independent.
            x = lat
            i = 0
            for y in partials:
                if abs(x) < abs(y):
                    x, y = y, x
                hi = x + y
                lo = y - (hi - x)
                if lo:
                    partials[i] = lo
                    i += 1
                x = hi
            partials[i:] = [x]
        self.total_ops += len(latencies)
        lo = min(latencies)
        hi = max(latencies)
        if self.min_latency is None or lo < self.min_latency:
            self.min_latency = lo
        if self.max_latency is None or hi > self.max_latency:
            self.max_latency = hi

    def add_to_bucket(self, bucket: int, count: int = 1) -> None:
        """Record directly into a bucket (used for value-correlation profiles).

        Totals are updated using the bucket's representative latency so
        that checksum verification still holds.
        """
        if bucket < 0 or bucket > MAX_BUCKET:
            raise ValueError("bucket index out of range")
        if count < 1:
            raise ValueError("count must be >= 1")
        self._counts[bucket] = self._counts.get(bucket, 0) + count
        self.total_ops += count
        _grow_expansion(self._latency_partials, self.spec.mid(bucket) * count)

    def merge(self, other: "LatencyBuckets") -> None:
        """Fold another histogram into this one (used by per-CPU profiles)."""
        if other.spec != self.spec:
            raise ValueError("cannot merge histograms with different resolutions")
        # Concatenating two exact expansions keeps the sum exact, so
        # merge order (serial, sharded, concurrent pushes) cannot change
        # the reported total by even an ulp.
        self._fold(other, other._latency_partials)

    def _fold(self, other: "LatencyBuckets",
              partials: Iterable[float]) -> None:
        """:meth:`merge` unchecked, growing the expansion from *partials*."""
        for b, c in other._counts.items():
            self._counts[b] = self._counts.get(b, 0) + c
        self.total_ops += other.total_ops
        for partial in partials:
            _grow_expansion(self._latency_partials, partial)
        if other.min_latency is not None:
            if self.min_latency is None or other.min_latency < self.min_latency:
                self.min_latency = other.min_latency
        if other.max_latency is not None:
            if self.max_latency is None or other.max_latency > self.max_latency:
                self.max_latency = other.max_latency

    def latency_residual(self) -> List[float]:
        """Exact expansion of ``(true total) - total_latency``.

        Serialization keeps one float64 per total, so a histogram whose
        expansion needs more components loses up to half an ulp per
        encode.  The residual captures exactly what the rounding
        dropped; a consumer that stores it next to the encoded bytes
        (the warehouse does, in its commit log) can hand it back to
        :meth:`correct_total_latency` after decoding and make the
        encode/decode cycle sum-exact — which is what keeps tiered
        compaction byte-deterministic.
        """
        residual: List[float] = []
        _grow_expansion(residual, -self.total_latency)
        for partial in self._latency_partials:
            _grow_expansion(residual, partial)
        return [c for c in residual if c]

    def correct_total_latency(self, components: Iterable[float]) -> None:
        """Fold exact correction *components* back into the expansion."""
        for c in components:
            _grow_expansion(self._latency_partials, float(c))

    # -- reading -----------------------------------------------------------

    def count(self, bucket: int) -> int:
        """Number of requests recorded in *bucket*."""
        return self._counts.get(bucket, 0)

    def counts(self) -> Dict[int, int]:
        """A copy of the sparse bucket→count mapping."""
        return dict(self._counts)

    def nonzero_buckets(self) -> List[int]:
        """Sorted indices of buckets holding at least one request."""
        return sorted(self._counts)

    def as_list(self, first: Optional[int] = None,
                last: Optional[int] = None) -> List[int]:
        """Dense list of counts from bucket *first* to *last* inclusive.

        Defaults to the histogram's own occupied range.  Empty histograms
        yield an empty list.
        """
        if not self._counts:
            return []
        lo = min(self._counts) if first is None else first
        hi = max(self._counts) if last is None else last
        return [self._counts.get(b, 0) for b in range(lo, hi + 1)]

    def span(self) -> Tuple[int, int]:
        """(lowest, highest) occupied bucket indices.

        Raises ``ValueError`` on an empty histogram.
        """
        if not self._counts:
            raise ValueError("histogram is empty")
        return min(self._counts), max(self._counts)

    def mean_latency(self) -> float:
        """Average recorded latency in cycles (0.0 if empty)."""
        if self.total_ops == 0:
            return 0.0
        return self.total_latency / self.total_ops

    def estimated_latency(self) -> float:
        """Total latency reconstructed from bucket midpoints.

        Useful when only the bucket counts survived serialization; agrees
        with ``total_latency`` to within a factor of the bucket width.
        """
        return sum(self.spec.mid(b) * c for b, c in self._counts.items())

    def verify_checksum(self) -> bool:
        """Consistency check from Section 4: bucket counts must sum to total_ops.

        Catches instrumentation errors (lost or double-counted updates).
        """
        return sum(self._counts.values()) == self.total_ops

    def __len__(self) -> int:
        return len(self._counts)

    def __iter__(self) -> Iterator[BucketStats]:
        for b in sorted(self._counts):
            yield BucketStats(index=b, count=self._counts[b],
                              low=self.spec.low(b), high=self.spec.high(b))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LatencyBuckets):
            return NotImplemented
        return (self.spec == other.spec and self._counts == other._counts
                and self.total_ops == other.total_ops)

    def __repr__(self) -> str:
        return (f"<LatencyBuckets ops={self.total_ops} "
                f"buckets={len(self._counts)} "
                f"mean={self.mean_latency():.0f}cyc>")

    # -- construction helpers ----------------------------------------------

    @classmethod
    def from_latencies(cls, latencies: Iterable[float],
                       spec: Optional[BucketSpec] = None) -> "LatencyBuckets":
        """Build a histogram from an iterable of latencies in cycles."""
        hist = cls(spec)
        for lat in latencies:
            hist.add(lat)
        return hist

    @classmethod
    def from_counts(cls, counts: Dict[int, int],
                    spec: Optional[BucketSpec] = None) -> "LatencyBuckets":
        """Build a histogram directly from a bucket→count mapping."""
        hist = cls(spec)
        for b in sorted(counts):
            if counts[b]:
                hist.add_to_bucket(b, counts[b])
        return hist
