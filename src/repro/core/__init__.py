"""OSprof core: logarithmic latency profiles and their capture.

The public surface of the paper's primary contribution:

* :class:`BucketSpec`, :class:`LatencyBuckets` — the aggregate-stats
  library (log2 buckets, checksums, resolution).
* :class:`Profile`, :class:`ProfileSet` — per-operation histograms and
  complete profiles with text serialization.
* :class:`Profiler` — request interception (begin/end, context manager,
  decorator) against any cycle-counter clock.
* :class:`SampledProfiler` — time-segmented 3-D profiles (Figure 9).
* :class:`ValueCorrelator` — direct profile/value correlation (Figure 8).
* :class:`LayerStack` — layered profiling across user/FS/driver levels.
* :class:`LossySharedBuckets` / :class:`PerThreadBuckets` — SMP update
  strategies.
* :class:`SyscallProfiler` — user-level profiling of the host OS.
"""

from .._lazy import lazy_exports

__all__ = [
    "BucketSpec", "LatencyBuckets", "DEFAULT_RESOLUTION", "MAX_BUCKET",
    "PeakRange", "ValueCorrelator",
    "InterceptionError", "Interceptor",
    "PROC_ROOT", "ProcFs",
    "SyscallProfiler", "profile_callable",
    "LayerStack", "isolate_layer",
    "LossySharedBuckets", "PerThreadBuckets",
    "Layer", "Profile", "ProfileSet",
    "NOMINAL_HZ", "Profiler", "tsc_clock",
    "SampledProfiler", "SampledProfileSeries",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".buckets": ("BucketSpec", "LatencyBuckets", "DEFAULT_RESOLUTION",
                 "MAX_BUCKET"),
    ".correlation": ("PeakRange", "ValueCorrelator"),
    ".detours": ("InterceptionError", "Interceptor"),
    ".procfs": ("PROC_ROOT", "ProcFs"),
    ".hostprof": ("SyscallProfiler", "profile_callable"),
    ".layers": ("LayerStack", "isolate_layer"),
    ".locking": ("LossySharedBuckets", "PerThreadBuckets"),
    ".profile": ("Layer", "Profile"),
    ".profileset": ("ProfileSet",),
    ".profiler": ("NOMINAL_HZ", "Profiler", "tsc_clock"),
    ".sampling": ("SampledProfiler", "SampledProfileSeries"),
})
