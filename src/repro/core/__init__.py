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

from .buckets import BucketSpec, LatencyBuckets, DEFAULT_RESOLUTION, MAX_BUCKET
from .correlation import PeakRange, ValueCorrelator
from .detours import InterceptionError, Interceptor
from .procfs import PROC_ROOT, ProcFs
from .hostprof import SyscallProfiler, profile_callable
from .layers import LayerStack, isolate_layer
from .locking import LossySharedBuckets, PerThreadBuckets
from .profile import Layer, Profile
from .profileset import ProfileSet
from .profiler import NOMINAL_HZ, Profiler, tsc_clock
from .sampling import SampledProfiler, SampledProfileSeries

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
