"""Periodic wait-state sampling of a running simulated kernel.

:class:`WaitStateSampler` is the always-on half of the profiling story:
every *interval* cycles of **simulated** time it walks the kernel's
process table and records, per live process, ``(state, layer, op,
wait_site)`` into a :class:`~repro.sampling.stateprofile.StateProfile`.
The sampler is the engine's periodic observer
(:meth:`repro.sim.engine.Engine.observe`), not an engine event: no
process can change state between two events, so the engine hands it
all the ticks that fell since the previous event at once and one walk
of the process table records each cell with that many samples — the
same bytes as one walk per tick.  No wall-clock reads, no RNG draws,
no pipeline interaction, no events of its own: a sampled run is
deterministic under a fixed seed and the measured latency profiles
are byte-identical with the sampler on or off.

The only wall-clock use is the ``overhead_ns_total`` health counter
(how much real time the capture loop itself costs), which is exported
on the metrics endpoint but never serialized into a profile, keeping
StateProfile bytes pinnable in CI.
"""

from __future__ import annotations

import time
from typing import Dict

from ..sim.process import ProcessState
from ..sim.scheduler import Kernel
from .stateprofile import StateProfile

__all__ = ["WaitStateSampler", "canonical_wait_site"]

#: Layer recorded for a process outside any instrumented request.
_IDLE_LAYER = "user"

#: Operation recorded for a process outside any instrumented request.
_IDLE_OP = "-"

#: Wait site recorded for a process that is not blocked.
_NO_WAIT = "-"


def canonical_wait_site(site: str) -> str:
    """Collapse per-request condition names into bounded site families.

    Disk completions (``io:r<block>``), page locks (``page:<ino>:<idx>``),
    and network transaction ids (``nfs:xid.../smb:mid...``) mint a fresh
    condition name per request, which would grow a StateProfile without
    bound.  Per-*resource* names — ``sem:i_sem:<ino>``, ``rw:<lock>`` —
    are the diagnostic signal and pass through unchanged.
    """
    if site.startswith("io:w"):
        return "io:write"
    if site.startswith("io:r"):
        return "io:read"
    if site.startswith("page:"):
        return "page"
    if site.startswith("nfs:"):
        return "nfs"
    if site.startswith("smb:"):
        return "smb"
    if site.startswith("exit:"):
        return "exit"
    return site


class WaitStateSampler:
    """Samples per-process wait state on a fixed sim-clock period.

    ``interval`` is in cycles (use :func:`repro.sim.engine.seconds` to
    express it in simulated seconds).  :meth:`start` arms the first
    tick one interval from now; sampling then continues until
    :meth:`stop`, across any number of engine runs.  The sampler takes
    the engine's single observer slot.
    """

    def __init__(self, kernel: Kernel, interval: float,
                 name: str = "state-samples"):
        if interval <= 0:
            raise ValueError("sample interval must be positive")
        self.kernel = kernel
        self.interval = float(interval)
        self.name = name
        self._profile = StateProfile(name=name, interval=self.interval)
        self._running = False
        # Health counters (metrics endpoint; never serialized).
        self.samples_total = 0
        self.intervals_total = 0
        self.overhead_ns_total = 0

    # -- lifecycle -----------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._running

    def start(self) -> None:
        """Arm the sampler; the first capture fires one interval from now."""
        if self._running:
            raise RuntimeError("sampler already started")
        self.kernel.engine.observe(self.interval, self._tick)
        self._running = True

    def stop(self) -> None:
        """Disarm the sampler (idempotent)."""
        if self._running:
            self.kernel.engine.stop_observing()
            self._running = False

    # -- the tick ------------------------------------------------------------

    def _tick(self, ticks: int) -> None:
        """Record *ticks* consecutive ticks of one unchanged process table."""
        started = time.perf_counter_ns()
        self._capture(ticks)
        self.intervals_total += ticks
        self._profile.intervals += ticks
        self.overhead_ns_total += time.perf_counter_ns() - started

    def _capture(self, ticks: int) -> None:
        add = self._profile.add
        for proc in self.kernel.processes:
            if proc.state == ProcessState.DONE:
                continue
            ctx = proc.request_context
            if ctx is not None:
                layer = ctx.layer
                op = ctx.operation
            else:
                layer = _IDLE_LAYER
                op = _IDLE_OP
            if proc.state == ProcessState.BLOCKED:
                site = canonical_wait_site(proc.wait_site or "unknown")
            else:
                site = _NO_WAIT
            add(proc.state, layer, op, site, ticks)
            self.samples_total += ticks

    # -- results -------------------------------------------------------------

    def profile(self) -> StateProfile:
        """A snapshot copy of the accumulated state profile."""
        snap = StateProfile(name=self.name, interval=self.interval)
        snap.merge(self._profile)
        return snap

    def reset(self) -> None:
        """Clear accumulated counts (health counters keep running)."""
        self._profile = StateProfile(name=self.name, interval=self.interval)

    def metrics(self) -> Dict[str, int]:
        """Health counters in metrics-endpoint naming."""
        return {
            "osprof_samples_total": self.samples_total,
            "osprof_sample_intervals_total": self.intervals_total,
            "osprof_sampler_overhead_ns_total": self.overhead_ns_total,
        }
