"""Kernel synchronization primitives: semaphores, spinlocks, RW locks.

These produce the latency structure at the heart of the paper's case
studies.  A semaphore acquisition has two paths (Section 3):

* uncontended — ``latency = t_cpu`` (the semaphore bookkeeping), or
* contended — ``latency = t_cpu + t_sem`` (sleep until the holder
  releases), which appears as a separate right-shifted peak.

Spinlock contention instead *burns CPU* (t_spinlock counts into t_cpu),
and on SMP produces peaks like Figure 1's FreeBSD ``clone`` profile.

The paper notes that "all semaphore and lock-related operations impose
relatively high overheads even without contention, because the semaphore
function is called twice and its size is comparable to llseek" — hence
every primitive charges explicit acquire/release CPU costs.
"""

from __future__ import annotations

from typing import Optional

from .process import Condition, CpuBurst, ProcBody, Process, WaitCondition
from .scheduler import Kernel

__all__ = ["Semaphore", "SpinLock", "RWLock", "DEFAULT_SEM_COST",
           "DEFAULT_SPIN_POLL"]

#: CPU cost of one semaphore function call (down() or up()).  The paper
#: notes "the semaphore function is called twice and its size is
#: comparable to llseek" — two ~125-cycle calls around a ~110-cycle
#: llseek body reproduce the 400-vs-120-cycle unpatched/patched split
#: of Section 6.1.
DEFAULT_SEM_COST = 125.0

#: Cycles burned per spin-poll iteration while a spinlock is held.
DEFAULT_SPIN_POLL = 50.0


class Semaphore:
    """A sleeping mutex (Linux ``struct semaphore`` with count=1...n).

    Two fairness disciplines, because they produce different contention
    profiles under load:

    * ``fair=True`` (default, Linux-style): FIFO hand-off — a releaser
      passes ownership directly to the first waiter; waiters cannot
      starve and wait times reflect queue depth.
    * ``fair=False`` (FreeBSD sx-style): barging — release makes the
      semaphore free and wakes a waiter, but a running process can grab
      it first.  Under CPU oversubscription this dissolves the convoy a
      FIFO hand-off builds, so only a fraction of acquisitions contend
      (the two distinct peaks of Figure 1).
    """

    def __init__(self, kernel: Kernel, name: str = "sem", initial: int = 1,
                 op_cost: float = DEFAULT_SEM_COST, fair: bool = True):
        if initial < 0:
            raise ValueError("initial count must be non-negative")
        self.kernel = kernel
        self.name = name
        self.count = initial
        self.op_cost = op_cost
        self.fair = fair
        self._cond = Condition(f"sem:{name}")
        self.acquisitions = 0
        self.contentions = 0
        self.holder: Optional[Process] = None

    def acquire(self, proc: Process) -> ProcBody:
        """Generator effect: ``yield from sem.acquire(proc)``."""
        kernel = self.kernel
        cycles = kernel.rng.jitter(self.op_cost)
        if not kernel.burn(proc, cycles):
            yield CpuBurst(cycles)
        self.acquisitions += 1
        if self.count > 0:
            self.count -= 1
            self.holder = proc
            return False  # uncontended
        self.contentions += 1
        if self.fair:
            yield WaitCondition(self._cond)
            # Ownership was handed to us by release(); count already 0.
            self.holder = proc
            return True  # contended
        while self.count <= 0:
            yield WaitCondition(self._cond)
        self.count -= 1
        self.holder = proc
        return True  # contended

    def release(self, proc: Process) -> ProcBody:
        """Generator effect: ``yield from sem.release(proc)``."""
        kernel = self.kernel
        cycles = kernel.rng.jitter(self.op_cost)
        if not kernel.burn(proc, cycles):
            yield CpuBurst(cycles)
        self.holder = None
        if self.fair:
            woke = kernel.fire_condition(self._cond, wake_all=False)
            if woke == 0:
                self.count += 1
        else:
            self.count += 1
            kernel.fire_condition(self._cond, wake_all=False)
        return None

    def held(self, proc: Process, body: ProcBody) -> ProcBody:
        """Run *body* with the semaphore held (acquire/try/release)."""
        yield from self.acquire(proc)
        try:
            result = yield from body
        finally:
            yield from self.release(proc)
        return result

    @property
    def waiters(self) -> int:
        return len(self._cond.waiters)

    def contention_rate(self) -> float:
        """Fraction of acquisitions that had to sleep."""
        if self.acquisitions == 0:
            return 0.0
        return self.contentions / self.acquisitions

    def __repr__(self) -> str:
        return (f"<Semaphore {self.name} count={self.count} "
                f"waiters={self.waiters}>")


class SpinLock:
    """A busy-waiting lock: contention burns CPU time (t_spinlock).

    Polling happens in :data:`DEFAULT_SPIN_POLL`-cycle bursts, so a
    spinning process holds its CPU (and can exhaust its quantum), unlike
    a semaphore waiter.
    """

    def __init__(self, kernel: Kernel, name: str = "lock",
                 op_cost: float = DEFAULT_SEM_COST,
                 poll_cycles: float = DEFAULT_SPIN_POLL):
        self.kernel = kernel
        self.name = name
        self.op_cost = op_cost
        self.poll_cycles = poll_cycles
        self.locked = False
        self.acquisitions = 0
        self.contentions = 0
        self.total_spin_cycles = 0.0
        self.holder: Optional[Process] = None

    def acquire(self, proc: Process) -> ProcBody:
        yield CpuBurst(self.kernel.rng.jitter(self.op_cost))
        self.acquisitions += 1
        contended = False
        while self.locked:
            if not contended:
                contended = True
                self.contentions += 1
            spin = self.kernel.rng.jitter(self.poll_cycles, sigma=0.3)
            self.total_spin_cycles += spin
            yield CpuBurst(spin)
        self.locked = True
        self.holder = proc
        return contended

    def release(self, proc: Process) -> ProcBody:
        if not self.locked:
            raise RuntimeError(f"spinlock {self.name} released when free")
        yield CpuBurst(self.kernel.rng.jitter(self.op_cost))
        self.locked = False
        self.holder = None
        return None

    def held(self, proc: Process, body: ProcBody) -> ProcBody:
        yield from self.acquire(proc)
        try:
            result = yield from body
        finally:
            yield from self.release(proc)
        return result

    def contention_rate(self) -> float:
        if self.acquisitions == 0:
            return 0.0
        return self.contentions / self.acquisitions

    def __repr__(self) -> str:
        state = "locked" if self.locked else "free"
        return f"<SpinLock {self.name} {state}>"


class RWLock:
    """Reader/writer lock with writer preference (like Linux rwsem).

    Many readers may hold it concurrently; a writer excludes everyone.
    Used by the reiserfs substrate where ``write_super`` (the journal
    flush) excludes the read path — the contention of Figure 9.
    """

    def __init__(self, kernel: Kernel, name: str = "rwlock",
                 op_cost: float = DEFAULT_SEM_COST):
        self.kernel = kernel
        self.name = name
        self.op_cost = op_cost
        self.readers = 0
        self.writer: Optional[Process] = None
        self._writer_waiting = 0
        self._read_cond = Condition(f"rw:{name}:read")
        self._write_cond = Condition(f"rw:{name}:write")
        self.read_contentions = 0
        self.write_contentions = 0

    def acquire_read(self, proc: Process) -> ProcBody:
        yield CpuBurst(self.kernel.rng.jitter(self.op_cost))
        contended = False
        while self.writer is not None or self._writer_waiting > 0:
            if not contended:
                contended = True
                self.read_contentions += 1
            yield WaitCondition(self._read_cond)
        self.readers += 1
        return contended

    def release_read(self, proc: Process) -> ProcBody:
        if self.readers <= 0:
            raise RuntimeError(f"rwlock {self.name}: read-release underflow")
        yield CpuBurst(self.kernel.rng.jitter(self.op_cost))
        self.readers -= 1
        if self.readers == 0 and self._writer_waiting > 0:
            self.kernel.fire_condition(self._write_cond, wake_all=False)
        return None

    def acquire_write(self, proc: Process) -> ProcBody:
        yield CpuBurst(self.kernel.rng.jitter(self.op_cost))
        contended = False
        while self.writer is not None or self.readers > 0:
            if not contended:
                contended = True
                self.write_contentions += 1
            self._writer_waiting += 1
            yield WaitCondition(self._write_cond)
            self._writer_waiting -= 1
        self.writer = proc
        return contended

    def release_write(self, proc: Process) -> ProcBody:
        if self.writer is not proc:
            raise RuntimeError(f"rwlock {self.name}: writer-release by "
                               f"non-holder")
        yield CpuBurst(self.kernel.rng.jitter(self.op_cost))
        self.writer = None
        if self._writer_waiting > 0:
            self.kernel.fire_condition(self._write_cond, wake_all=False)
        else:
            self.kernel.fire_condition(self._read_cond, wake_all=True)
        return None

    def read_held(self, proc: Process, body: ProcBody) -> ProcBody:
        yield from self.acquire_read(proc)
        try:
            result = yield from body
        finally:
            yield from self.release_read(proc)
        return result

    def write_held(self, proc: Process, body: ProcBody) -> ProcBody:
        yield from self.acquire_write(proc)
        try:
            result = yield from body
        finally:
            yield from self.release_write(proc)
        return result

    def __repr__(self) -> str:
        return (f"<RWLock {self.name} readers={self.readers} "
                f"writer={'yes' if self.writer else 'no'}>")
