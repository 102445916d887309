"""File-system-level instrumentation: the FSPROF macro pair.

FoSgen "discovers implementations of all file system operations and
inserts FSPROF_PRE(op) and FSPROF_POST(op) macros at their entry and
return points" (Section 4).  :class:`FsInstrument` is the runtime those
macros call into: a TSC read at entry, a TSC read plus bucket update at
return, with the same per-hook CPU costs as the syscall layer so the
Section 5.2 overhead decomposition applies at this layer too.

Nested instrumented operations (``readdir`` calling ``readpage``)
compose naturally — each wrapped generator measures its own interval,
the paper's "layered profiling ... extended to the granularity of a
single function call."
"""

from __future__ import annotations

from typing import Optional

from ..core.pipeline import Pipeline, ProbePoint, wire_probe
from ..core.profile import Layer
from ..core.profiler import Profiler
from ..core.sampling import SampledProfiler
from ..sim.process import CpuBurst, ProcBody, Process
from ..sim.scheduler import Kernel
from ..sim.syscalls import PROFILER_HOOK_COST

__all__ = ["FsInstrument"]


class FsInstrument:
    """Wraps FS operation generators with latency capture.

    ``variant`` mirrors :class:`~repro.sim.syscalls.SyscallLayer`:
    ``off`` (no hooks), ``empty`` (hook call cost only), ``tsc_only``
    (hooks + TSC reads, nothing stored), ``full`` (the real profiler).

    Events emit through a probe built by
    :func:`~repro.core.pipeline.wire_probe`; pass ``pipeline`` to share
    one machine-wide pipeline.  With neither a profiler nor a sampled
    target the probe gets a :class:`~repro.core.pipeline.NullSink`, and
    the record path is deactivated entirely.
    """

    VARIANTS = ("off", "empty", "tsc_only", "full")

    def __init__(self, kernel: Kernel,
                 profiler: Optional[Profiler] = None,
                 sampled: Optional[SampledProfiler] = None,
                 variant: str = "full",
                 pipeline: Optional[Pipeline] = None):
        if variant not in self.VARIANTS:
            raise ValueError(f"variant must be one of {self.VARIANTS}")
        self.kernel = kernel
        self.profiler = profiler
        self.sampled = sampled
        self.variant = variant
        if pipeline is None:
            pipeline = Pipeline()
        layer_label = profiler.layer if profiler is not None \
            else Layer.FILESYSTEM
        self.probe_point = wire_probe(pipeline, layer_label,
                                      profiler=profiler, sampled=sampled,
                                      name="fs")
        self.pipeline = pipeline

    def _hook_cost(self) -> float:
        if self.variant == "off":
            return 0.0
        cost = PROFILER_HOOK_COST["call"]
        if self.variant in ("tsc_only", "full"):
            cost += PROFILER_HOOK_COST["tsc_read"]
        if self.variant == "full":
            cost += PROFILER_HOOK_COST["store"] / 2.0
        return cost

    def invoke(self, proc: Process, operation: str,
               body: ProcBody) -> ProcBody:
        """FSPROF_PRE(op); body; FSPROF_POST(op)."""
        kernel = self.kernel
        hook = self._hook_cost()
        probe = self.probe_point
        context = probe.push_context(proc, operation) if probe.active \
            else None
        try:
            if hook > 0:
                cycles = kernel.rng.jitter(hook)
                if not kernel.burn(proc, cycles):
                    yield CpuBurst(cycles)
            start = kernel.read_tsc(proc)
            try:
                result = yield from body
            finally:
                end = kernel.read_tsc(proc)
                if self.variant == "full":
                    probe.record(operation, end - start, start=start,
                                 context=context)
            if hook > 0:
                cycles = kernel.rng.jitter(hook)
                if not kernel.burn(proc, cycles):
                    yield CpuBurst(cycles)
        finally:
            if context is not None:
                ProbePoint.pop_context(proc, context)
        return result
