"""Request interception and latency capture.

The :class:`Profiler` is the moral equivalent of the paper's
``FSPROF_PRE(op)`` / ``FSPROF_POST(op)`` instrumentation macros: it reads
a cycle counter at operation entry and exit, and stores the delta into
the appropriate logarithmic bucket of a per-operation profile.

The cycle counter is pluggable: pass any zero-argument callable
returning a monotonically non-decreasing cycle count.  By default a
wall-clock TSC emulation (``perf_counter_ns`` scaled to a nominal CPU
frequency) is used, so the profiler can instrument *real* Python code;
inside the simulator, the simulated per-CPU TSC is passed instead —
exactly the layered design of Figure 2 where the same aggregate-stats
library runs at user, file-system, and driver level.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, ContextManager, Optional

from .buckets import BucketSpec
from .pipeline import Pipeline, ProbeToken, wire_probe
from .profile import Layer
from .profileset import ProfileSet

__all__ = ["Profiler", "tsc_clock", "NOMINAL_HZ"]

#: Nominal frequency of the paper's test machine (1.7 GHz Pentium 4).
NOMINAL_HZ = 1.7e9


def tsc_clock(hz: float = NOMINAL_HZ) -> Callable[[], float]:
    """An emulated TSC: wall-clock nanoseconds scaled to CPU cycles.

    On the paper's hardware a TSC read was a single instruction (~20
    cycles); ``perf_counter_ns`` is the closest portable equivalent.
    """
    scale = hz / 1e9

    def read() -> float:
        return time.perf_counter_ns() * scale

    return read


class Profiler:
    """Latency profiler writing into a :class:`ProfileSet`.

    Instances are cheap; create one per layer being profiled.  Three
    usage styles are supported, mirroring how the paper's macros were
    applied:

    * explicit ``begin()`` / ``end()`` around arbitrary code,
    * the :meth:`request` context manager,
    * the :meth:`wrap` decorator, which instruments a callable the way
      FoSgen instruments a VFS operation.

    All three record through the profiler's own single-CPU
    :class:`~repro.core.pipeline.ProbePoint`, the same batched path
    every simulated layer uses, so the token, the negative-latency
    clamp and the double-finish check exist once, in the pipeline.
    """

    def __init__(self, name: str = "", layer: str = Layer.FILESYSTEM,
                 clock: Optional[Callable[[], float]] = None,
                 spec: Optional[BucketSpec] = None):
        self.layer = layer
        self.clock = clock if clock is not None else tsc_clock()
        self.profiles = ProfileSet(name=name, spec=spec)
        self._enabled = True
        self._flush_hooks = []
        self._probe = wire_probe(Pipeline(), layer, profiler=self,
                                 clock=self.clock, name=name)

    @property
    def enabled(self) -> bool:
        """Whether samples are kept: the /proc enable/disable switch.

        Samples are dropped when they drain, not when they are taken,
        so the switch flushes first: whatever was taken before it keeps
        the old state.  This holds for the profiler's own probe and for
        every simulated layer's probe wired to it.
        """
        return self._enabled

    @enabled.setter
    def enabled(self, value: bool) -> None:
        self._flush()
        self._enabled = value

    # -- core instrumentation ---------------------------------------------

    def begin(self, operation: str) -> ProbeToken:
        """FSPROF_PRE: read the cycle counter and remember it."""
        return self._probe.enter(operation)

    def end(self, token: ProbeToken) -> Optional[float]:
        """FSPROF_POST: compute the latency and bucket it.

        Returns the measured latency in cycles, or ``None`` when the
        profiler is disabled.  Finishing a token twice is an
        instrumentation bug and raises
        :class:`~repro.core.pipeline.TokenFinishedError`.
        """
        latency = self._probe.exit(token)
        return latency if self._enabled else None

    def record(self, operation: str, latency: float) -> None:
        """Record an externally measured latency (cycles) directly."""
        self._probe.record(operation, latency)

    def request(self, operation: str) -> ContextManager[ProbeToken]:
        """Profile the body of a ``with`` block as one request."""
        return self._probe.request(operation)

    def wrap(self, operation: Optional[str] = None) -> Callable:
        """Decorator instrumenting a callable as a profiled operation.

        The operation name defaults to the function's ``__name__``, the
        same convention FoSgen uses for VFS operation vectors.
        """

        def decorate(func: Callable) -> Callable:
            opname = operation if operation is not None else func.__name__

            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                with self.request(opname):
                    return func(*args, **kwargs)

            return wrapper

        return decorate

    # -- results -------------------------------------------------------------

    def attach_flush(self, hook: Callable[[], None]) -> None:
        """Register a hook run before results are read or reset.

        The probe/event pipeline defers histogram insertion into per-CPU
        batch buffers; its flush is attached here so ``profile_set()``,
        ``reset()`` and the ``enabled`` switch always observe a fully
        drained profile.
        """
        self._flush_hooks.append(hook)

    def _flush(self) -> None:
        for hook in self._flush_hooks:
            hook()

    def profile_set(self) -> ProfileSet:
        """The accumulated complete profile."""
        self._flush()
        return self.profiles

    def reset(self) -> None:
        """Drop accumulated profiles, keeping clock and configuration."""
        self._flush()
        self.profiles = ProfileSet(name=self.profiles.name,
                                   spec=self.profiles.spec)

    def measurement_overhead(self, samples: int = 10000) -> float:
        """Measure the in-profile overhead: cycles between the two clock reads.

        Section 5.2 computed ~40 cycles on the paper's machine, which
        bounds the smallest recordable latency (their minimum was always
        bucket 5).  Profiling an empty region measures the same quantity
        here.
        """
        if samples < 1:
            raise ValueError("samples must be >= 1")
        deltas = []
        for _ in range(samples):
            t0 = self.clock()
            t1 = self.clock()
            deltas.append(t1 - t0)
        return sum(deltas) / len(deltas)
