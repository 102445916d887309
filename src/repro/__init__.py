"""OSprof reproduction: operating system profiling via latency analysis.

A full-system reproduction of Joukov et al., *Operating System Profiling
via Latency Analysis* (OSDI 2006): the OSprof aggregate-stats library
and analysis toolchain (:mod:`repro.core`, :mod:`repro.analysis`)
running against a deterministic discrete-event OS simulator
(:mod:`repro.sim`, :mod:`repro.disk`, :mod:`repro.vfs`, :mod:`repro.fs`,
:mod:`repro.net`) driven by the paper's workloads
(:mod:`repro.workloads`).

Quick start::

    from repro import System
    sys = System.build()               # 1-CPU machine, ext2, profilers on
    ...                                 # build a tree, spawn workloads
    sys.run(procs)
    print(sys.fs_profiles().dumps())   # OSprof text profiles
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = ["BucketSpec", "LatencyBuckets", "Profile", "ProfileSet",
           "Profiler", "SampledProfiler", "ValueCorrelator", "System",
           "__version__"]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".core": ("BucketSpec", "LatencyBuckets", "Profile", "ProfileSet",
              "Profiler", "SampledProfiler", "ValueCorrelator"),
    ".system": ("System",),
})
