"""Direct profile and value correlation (Section 3.1, Figure 8).

To explain a peak, OSprof can partition requests by the peak their
latency falls into and, for each partition, build a logarithmic profile
of an *internal OS variable* instead of the latency.  The paper's
Figure 8 correlates ``readdir_past_EOF * 1024`` with the first peak of
the ``readdir`` profile, proving that peak is reads past end of
directory.

:class:`ValueCorrelator` implements that slightly modified profiling
macro: the caller supplies bucket ranges naming each peak; every request
reports (latency, value); the value is bucketed logarithmically into the
profile belonging to the peak the latency matched.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from .buckets import BucketSpec, LatencyBuckets

__all__ = ["PeakRange", "ValueCorrelator"]


class PeakRange:
    """A named, inclusive range of bucket indices identifying one peak."""

    __slots__ = ("name", "low", "high")

    def __init__(self, name: str, low: int, high: int):
        if low > high:
            raise ValueError("peak range low must be <= high")
        self.name = name
        self.low = low
        self.high = high

    def contains(self, bucket: int) -> bool:
        return self.low <= bucket <= self.high

    def __repr__(self) -> str:
        return f"PeakRange({self.name!r}, {self.low}, {self.high})"


class ValueCorrelator:
    """Correlate an internal variable's values with latency peaks.

    One value histogram is kept per peak range, plus an ``other``
    histogram for requests matching no configured peak (the paper's
    "in another profile otherwise").
    """

    OTHER = "other"

    def __init__(self, peaks: Sequence[PeakRange],
                 spec: Optional[BucketSpec] = None,
                 value_scale: float = 1.0):
        names = [p.name for p in peaks]
        if len(set(names)) != len(names):
            raise ValueError("peak names must be unique")
        if self.OTHER in names:
            raise ValueError(f"peak name {self.OTHER!r} is reserved")
        self.peaks = list(peaks)
        self.spec = spec if spec is not None else BucketSpec()
        #: Figure 8 multiplies the 0/1 flag by 1024 so both values are
        #: visible on a log plot; value_scale generalizes that trick.
        self.value_scale = value_scale
        self._histograms: Dict[str, LatencyBuckets] = {
            p.name: LatencyBuckets(self.spec) for p in self.peaks}
        self._histograms[self.OTHER] = LatencyBuckets(self.spec)

    def record(self, latency: float, value: float) -> str:
        """Attribute *value* to the peak containing *latency*; return its name."""
        bucket = self.spec.bucket(latency)
        name = self.OTHER
        for peak in self.peaks:
            if peak.contains(bucket):
                name = peak.name
                break
        scaled = value * self.value_scale
        if scaled < 0:
            raise ValueError("correlated values must be non-negative")
        self._histograms[name].add(scaled)
        return name

    def histogram(self, peak_name: str) -> LatencyBuckets:
        """The value histogram accumulated for one peak (or ``OTHER``)."""
        return self._histograms[peak_name]

    def summary(self) -> Dict[str, Dict[int, int]]:
        """Peak name → value-bucket counts, for reporting."""
        return {name: hist.counts()
                for name, hist in self._histograms.items()}

    def dominant_value_bucket(self, peak_name: str) -> Optional[int]:
        """The most populated value bucket for a peak, or None if empty."""
        counts = self._histograms[peak_name].counts()
        if not counts:
            return None
        return max(counts, key=lambda b: (counts[b], -b))

    def discrimination(self, peak_name: str) -> float:
        """How exclusively this peak's requests carry a distinct value.

        Returns the fraction of the peak's requests whose value bucket is
        not the dominant value bucket of all *other* requests combined —
        1.0 means the variable perfectly separates the peak (as in
        Figure 8 where past-EOF requests all carry flag 1 and every other
        request carries flag 0).
        """
        mine = self._histograms[peak_name].counts()
        total_mine = sum(mine.values())
        if total_mine == 0:
            return 0.0
        others: Dict[int, int] = {}
        for name, hist in self._histograms.items():
            if name == peak_name:
                continue
            for b, c in hist.counts().items():
                others[b] = others.get(b, 0) + c
        if not others:
            return 1.0
        others_dominant = max(others, key=lambda b: (others[b], -b))
        distinct = sum(c for b, c in mine.items() if b != others_dominant)
        return distinct / total_mine
