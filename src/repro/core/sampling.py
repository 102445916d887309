"""Profile sampling: time-segmented (3-D) profiles.

"OSprof is capable of taking successive snapshots by using new sets of
buckets to capture latency at predefined time intervals" (Section 3.1).
Figure 9's Reiserfs ``write_super``/``read`` contention was visualized
this way: the x-axis is the bucket number, the y-axis elapsed time, and
the cell value the operation count in that (bucket, interval) pair.

:class:`SampledProfiler` wraps the segmentation logic; each segment is a
full :class:`~repro.core.profileset.ProfileSet`, which is affordable
because one OSprof profile is tiny ("the small size of the OSprof
profile data", Section 6.3).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from .buckets import BucketSpec
from .profile import Layer
from .profileset import ProfileSet

__all__ = ["SampledProfiler", "SampledProfileSeries"]


class SampledProfileSeries:
    """The result of a sampled run: an ordered list of per-interval sets."""

    def __init__(self, interval: float, segments: List[ProfileSet],
                 tail_fraction: float = 1.0):
        if interval <= 0:
            raise ValueError("interval must be positive")
        if not 0.0 <= tail_fraction <= 1.0:
            raise ValueError("tail_fraction must be within [0, 1]")
        self.interval = interval
        self.segments = segments
        #: How much of the final segment's interval had elapsed when the
        #: series was read (1.0 = a complete interval).  Rate-style
        #: consumers must scale the last row by this instead of treating
        #: a partial tail as a genuine dip.
        self.tail_fraction = tail_fraction

    def __len__(self) -> int:
        return len(self.segments)

    def __getitem__(self, i: int) -> ProfileSet:
        return self.segments[i]

    def operations(self) -> List[str]:
        ops = set()
        for seg in self.segments:
            ops.update(seg.operations())
        return sorted(ops)

    def cells(self, operation: str) -> Dict[Tuple[int, int], int]:
        """Sparse (segment, bucket) → count matrix for one operation.

        This is the data behind Figure 9's density plot.
        """
        matrix: Dict[Tuple[int, int], int] = {}
        for seg_index, seg in enumerate(self.segments):
            prof = seg.get(operation)
            if prof is None:
                continue
            for bucket, count in prof.counts().items():
                matrix[(seg_index, bucket)] = count
        return matrix

    def collapse(self) -> ProfileSet:
        """Merge all segments back into a single complete profile.

        Raises :class:`ValueError` on an empty series: with no segments
        there is no bucket spec to inherit, and inventing a default
        would let a collapsed-empty profile silently merge into (and
        corrupt) sets recorded under a non-default resolution.
        """
        if not self.segments:
            raise ValueError(
                "cannot collapse an empty sampled series (no segments, "
                "so no bucket spec to inherit)")
        total = ProfileSet(name="collapsed", spec=self.segments[0].spec)
        for seg in self.segments:
            total.merge(seg)
        return total

    def periodicity(self, operation: str, bucket_lo: int,
                    bucket_hi: int) -> List[int]:
        """Per-segment counts within a bucket range, for spotting periodic bursts.

        A 5-second metadata flush shows up as spikes every
        ``5s / interval`` segments in the ``write_super`` row.
        """
        series = []
        for seg in self.segments:
            prof = seg.get(operation)
            if prof is None:
                series.append(0)
                continue
            series.append(sum(c for b, c in prof.counts().items()
                              if bucket_lo <= b <= bucket_hi))
        return series


class SampledProfiler:
    """Latency profiler that rotates its bucket set every *interval* cycles.

    The caller provides the same pluggable clock as
    :class:`~repro.core.profiler.Profiler`; segment boundaries are
    derived from that clock, so the profiler works identically on real
    and simulated time.
    """

    def __init__(self, clock: Callable[[], float], interval: float,
                 name: str = "", layer: str = Layer.FILESYSTEM,
                 spec: Optional[BucketSpec] = None):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.clock = clock
        self.interval = interval
        self.layer = layer
        self.spec = spec if spec is not None else BucketSpec()
        self.name = name
        self._epoch = clock()
        self._segments: List[ProfileSet] = []
        self._flush_hooks: List[Callable[[], None]] = []

    def _segment_for(self, timestamp: float) -> ProfileSet:
        if timestamp < self._epoch:
            # A pre-epoch start means the clock ran backwards (or the
            # caller replayed a stale timestamp); binning it into
            # segment 0 would silently shift Figure 9's time axis.
            # (Checked on the timestamp, not the derived index: int()
            # truncates toward zero, so offsets less than one interval
            # before the epoch would otherwise alias into segment 0.)
            raise ValueError(
                f"timestamp {timestamp} precedes the sampling epoch "
                f"{self._epoch} (non-monotonic clock input)")
        index = int((timestamp - self._epoch) / self.interval)
        while len(self._segments) <= index:
            self._segments.append(
                ProfileSet(name=f"{self.name}[{len(self._segments)}]",
                           spec=self.spec))
        return self._segments[index]

    def record(self, operation: str, start: float, latency: float) -> None:
        """Record a request that *started* at ``start`` and took ``latency``.

        Requests are attributed to the segment containing their start
        time, matching the paper's implementation where the bucket set
        active at FSPROF_PRE time receives the sample.
        """
        if latency < 0:
            latency = 0.0
        self._segment_for(start).add(operation, latency, layer=self.layer)

    def record_now(self, operation: str, latency: float) -> None:
        """Record a just-completed request of the given latency."""
        now = self.clock()
        self.record(operation, now - latency, latency)

    def attach_flush(self, hook: Callable[[], None]) -> None:
        """Register a hook run before :meth:`series` reads results.

        Lets the probe/event pipeline drain its probes' deferred event
        lists so the segment matrix is complete at read time.
        """
        self._flush_hooks.append(hook)

    def series(self) -> SampledProfileSeries:
        """The accumulated time-segmented profiles.

        The returned series carries ``tail_fraction``: how much of the
        final segment's interval had elapsed at read time, so a
        mid-interval read is distinguishable from a genuinely quiet
        tail.
        """
        for hook in self._flush_hooks:
            hook()
        tail = 1.0
        if self._segments:
            elapsed = (self.clock() - self._epoch) / self.interval
            tail = min(1.0, max(0.0, elapsed - (len(self._segments) - 1)))
        return SampledProfileSeries(self.interval, list(self._segments),
                                    tail_fraction=tail)
