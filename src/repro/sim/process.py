"""Simulated processes and the effects they yield.

A simulated process body is a Python generator.  It expresses kernel
activity by yielding *effects* — small declarative objects the scheduler
interprets:

* :class:`CpuBurst` — consume CPU cycles (preemptible at quantum expiry).
* :class:`Sleep` — leave the CPU for a fixed number of cycles (t_wait).
* :class:`WaitCondition` — block until a :class:`Condition` fires
  (semaphores and I/O completion are built on this).
* :class:`YieldCpu` — voluntarily relinquish the CPU but stay runnable.
* :class:`Spawn` — create a child process; the effect's value is the new
  :class:`Process`.

Sub-operations compose with plain ``yield from``, exactly like nested
function calls in a kernel (Ext2's ``readdir`` calling ``readpage``).

A plain ``yield CpuBurst(cycles)`` is always correct.  Hot kernel code
that burns CPU on every request first offers the burst to
:meth:`Kernel.burn <repro.sim.scheduler.Kernel.burn>`, which completes
it in place when it would be the next event, so it never travels up the
``yield from`` chain::

    cycles = kernel.rng.jitter(cost)
    if not kernel.burn(proc, cycles):
        yield CpuBurst(cycles)
"""

from __future__ import annotations

import math
from typing import Any, Generator, List, Optional

__all__ = ["CpuBurst", "Sleep", "WaitCondition", "YieldCpu", "Spawn",
           "Condition", "Process", "ProcessState", "Effect", "ProcBody"]

Effect = object
ProcBody = Generator[Effect, Any, Any]


class CpuBurst:
    """Consume *cycles* of CPU time.

    The burst is interruptible: the scheduler may preempt at quantum
    expiry and resume the remainder later.  Bursts issued while
    ``process.in_kernel`` is nonzero are only forcibly preemptible on
    kernels built with in-kernel preemption (Section 3.3).
    """

    __slots__ = ("cycles",)

    def __init__(self, cycles: float):
        if not 0 <= cycles < math.inf:
            raise ValueError("burst cycles must be finite and "
                             f"non-negative, got {cycles!r}")
        self.cycles = cycles

    def __repr__(self) -> str:
        return f"CpuBurst({self.cycles:.0f})"


class Sleep:
    """Block off-CPU for a fixed number of cycles (a pure t_wait)."""

    __slots__ = ("cycles",)

    def __init__(self, cycles: float):
        if not 0 <= cycles < math.inf:
            raise ValueError("sleep cycles must be finite and "
                             f"non-negative, got {cycles!r}")
        self.cycles = cycles

    def __repr__(self) -> str:
        return f"Sleep({self.cycles:.0f})"


class Condition:
    """A waitable pulse used for semaphore queues and I/O completions.

    Processes block on it with :class:`WaitCondition`; producers call
    ``fire(value)`` through the kernel, which wakes either the first
    waiter (``wake_all=False``, semaphore hand-off) or all of them.
    """

    __slots__ = ("name", "waiters")

    def __init__(self, name: str = ""):
        self.name = name
        self.waiters: List["Process"] = []

    def __repr__(self) -> str:
        return f"<Condition {self.name!r} waiters={len(self.waiters)}>"


class WaitCondition:
    """Block the process until *condition* fires; value is the fired payload."""

    __slots__ = ("condition",)

    def __init__(self, condition: Condition):
        self.condition = condition

    def __repr__(self) -> str:
        return f"WaitCondition({self.condition!r})"


class YieldCpu:
    """Voluntarily yield the CPU; the process remains runnable."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "YieldCpu()"


class Spawn:
    """Create a new process running *body*; effect value is the Process."""

    __slots__ = ("body", "name")

    def __init__(self, body: ProcBody, name: str = ""):
        self.body = body
        self.name = name

    def __repr__(self) -> str:
        return f"Spawn({self.name!r})"


class ProcessState:
    """Process lifecycle states."""

    RUNNABLE = "runnable"
    RUNNING = "running"
    BLOCKED = "blocked"
    DONE = "done"


class Process:
    """A simulated thread of control plus its accounting.

    ``in_kernel`` is a depth counter maintained by the syscall layer; a
    nonzero value means the process is inside a kernel request, which on
    non-preemptive kernels defers forcible preemption to the next
    user-mode boundary.
    """

    __slots__ = ("pid", "name", "gen", "state", "cpu", "remaining_burst",
                 "in_kernel", "quantum_left", "send_value", "cpu_time",
                 "sys_time", "user_time", "wait_time", "last_blocked_at",
                 "preempt_pending", "preemptions", "voluntary_switches",
                 "exit_value", "started_at", "finished_at",
                 "request_context", "wait_site")

    def __init__(self, pid: int, name: str, gen: ProcBody):
        self.pid = pid
        self.name = name or f"proc{pid}"
        self.gen = gen
        self.state = ProcessState.RUNNABLE
        self.cpu: Optional[int] = None
        self.remaining_burst = 0.0
        self.in_kernel = 0
        self.quantum_left = 0.0
        self.send_value: Any = None
        self.cpu_time = 0.0
        self.sys_time = 0.0
        self.user_time = 0.0
        self.wait_time = 0.0
        self.last_blocked_at = 0.0
        self.preempt_pending = False
        self.preemptions = 0
        self.voluntary_switches = 0
        self.exit_value: Any = None
        self.started_at = 0.0
        self.finished_at: Optional[float] = None
        #: Innermost pipeline RequestContext frame of the request this
        #: process is currently executing (cross-layer request ids).
        self.request_context: Any = None
        #: While BLOCKED, the name of what the process is waiting on
        #: (a Condition name such as ``sem:i_sem:42``, or ``sleep``);
        #: None whenever the process is not blocked.
        self.wait_site: Optional[str] = None

    @property
    def done(self) -> bool:
        return self.state == ProcessState.DONE

    def __repr__(self) -> str:
        return (f"<Process {self.pid} {self.name!r} {self.state}"
                f"{' cpu=' + str(self.cpu) if self.cpu is not None else ''}>")
