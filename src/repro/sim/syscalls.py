"""The system-call boundary: where requests enter the kernel.

"In an OS, requests arrive via system calls and network requests.  The
latency of these requests contains information about related CPU time,
rescheduling, lock and semaphore contentions, and I/O delays."

:class:`SyscallLayer` wraps operation generators with:

* kernel entry/exit (``proc.in_kernel`` depth, which controls whether a
  non-preemptive kernel may forcibly preempt), and
* optional OSprof instrumentation — the FSPROF_PRE/FSPROF_POST macro
  pair reading the current CPU's TSC.

It also charges the fixed syscall entry/exit CPU cost, so even a
zero-byte read has the small but nonzero latency of Figure 3's bucket-6
peak.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from ..core.pipeline import Pipeline, ProbePoint, wire_probe
from ..core.profile import Layer
from ..core.profiler import Profiler
from ..core.sampling import SampledProfiler
from .process import CpuBurst, ProcBody, Process
from .scheduler import Kernel

__all__ = ["SyscallLayer", "DEFAULT_SYSCALL_COST", "PROFILER_HOOK_COST"]

#: CPU cost of the syscall trap + return (cycles).  With the ~40-cycle
#: zero-byte read body this puts null reads in bucket 6, as in Figure 3.
DEFAULT_SYSCALL_COST = 45.0

#: The paper's measured per-operation profiling overhead components
#: (Section 5.2): calling the hook functions, reading the TSC, and
#: sorting/storing.  In-profile overhead (between the two TSC reads)
#: was ~40 cycles.
PROFILER_HOOK_COST = {
    "call": 15.0,       # entering/leaving each empty hook body
    "tsc_read": 10.0,   # one TSC read
    "store": 40.0,      # bucket sort + store
}


class SyscallLayer:
    """Dispatches profiled operations into the simulated kernel.

    ``profiler`` (user level) and ``fs_profiler`` (file-system level)
    are both optional; when attached, each profiled request additionally
    pays the instrumentation CPU cost, so the overhead experiment of
    Section 5.2 can be run by toggling instrumentation variants:

    * ``instrumentation="off"``      — no hooks at all,
    * ``instrumentation="empty"``    — hook calls with empty bodies,
    * ``instrumentation="tsc_only"`` — hooks that read the TSC only,
    * ``instrumentation="full"``     — the real profiler (default).
    """

    VARIANTS = ("off", "empty", "tsc_only", "full")

    def __init__(self, kernel: Kernel,
                 profiler: Optional[Profiler] = None,
                 sampled: Optional[SampledProfiler] = None,
                 syscall_cost: float = DEFAULT_SYSCALL_COST,
                 instrumentation: str = "full",
                 pipeline: Optional[Pipeline] = None):
        if instrumentation not in self.VARIANTS:
            raise ValueError(f"instrumentation must be one of {self.VARIANTS}")
        self.kernel = kernel
        self.profiler = profiler
        self.sampled = sampled
        self.syscall_cost = syscall_cost
        self.instrumentation = instrumentation
        self.calls = 0
        if pipeline is None:
            pipeline = Pipeline()
        layer_label = profiler.layer if profiler is not None \
            else Layer.USER
        self.probe_point = wire_probe(pipeline, layer_label,
                                      profiler=profiler, sampled=sampled,
                                      name="syscall")
        self.pipeline = pipeline

    def _hook_cost(self) -> float:
        """CPU cycles one PRE or POST hook burns, per the variant."""
        if self.instrumentation == "off" or (self.profiler is None
                                             and self.sampled is None):
            return 0.0
        cost = PROFILER_HOOK_COST["call"]
        if self.instrumentation in ("tsc_only", "full"):
            cost += PROFILER_HOOK_COST["tsc_read"]
        if self.instrumentation == "full":
            cost += PROFILER_HOOK_COST["store"] / 2.0  # split PRE/POST
        return cost

    def invoke(self, proc: Process, operation: str,
               body: ProcBody) -> ProcBody:
        """Run *body* as a profiled kernel request issued by *proc*.

        Usage from a workload generator::

            result = yield from syscalls.invoke(proc, "read",
                                                fs.read(proc, file, n))
        """
        self.calls += 1
        kernel = self.kernel
        hook = self._hook_cost()
        probe = self.probe_point
        # Stamp the root request context: this is where a request enters
        # the system, so every probed layer below shares its request id.
        context = probe.push_context(proc, operation) if probe.active \
            else None
        proc.in_kernel += 1
        try:
            # Trap into the kernel, then the PRE hook — all system time.
            entry_cost = self.syscall_cost / 2.0 + hook
            if entry_cost > 0:
                cycles = kernel.rng.jitter(entry_cost)
                if not kernel.burn(proc, cycles):
                    yield CpuBurst(cycles)
            start = kernel.read_tsc(proc)
            try:
                result = yield from body
            finally:
                end = kernel.read_tsc(proc)
                if self.instrumentation == "full":
                    probe.record(operation, end - start, start=start,
                                 context=context)
            # POST hook and return-to-user path.
            exit_cost = self.syscall_cost / 2.0 + hook
            if exit_cost > 0:
                cycles = kernel.rng.jitter(exit_cost)
                if not kernel.burn(proc, cycles):
                    yield CpuBurst(cycles)
        finally:
            proc.in_kernel -= 1
            if context is not None:
                ProbePoint.pop_context(proc, context)
        return result

    def probe(self, proc: Process, operation: str,
              body_cycles: float) -> ProcBody:
        """A syscall whose body is a plain CPU burn of *body_cycles*.

        Models micro-probes like the zero-byte read (~40 cycles of
        kernel work) used throughout Section 3.3.
        """
        def body() -> ProcBody:
            if body_cycles > 0:
                yield CpuBurst(self.kernel.rng.jitter(body_cycles))
            return None

        return self.invoke(proc, operation, body())
