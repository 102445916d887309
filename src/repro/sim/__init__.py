"""The simulated-kernel substrate.

A deterministic discrete-event model of the OSs the paper instruments:
an event :class:`Engine` denominated in CPU cycles, generator-coroutine
:class:`Process`\\ es scheduled round-robin over SMP :class:`Cpu`\\ s with
a quantum and optional in-kernel preemption, per-CPU skewed TSCs,
semaphores/spinlocks/RW locks, timer interrupts, periodic daemons, and
a syscall layer carrying OSprof instrumentation.
"""

from .._lazy import lazy_exports

__all__ = [
    "POWERUP_SKEW_SECONDS", "SOFTWARE_SYNC_SECONDS", "TscBank",
    "CYCLES_PER_SECOND", "Engine", "Event", "cycles_to_seconds", "seconds",
    "DEFAULT_TIMER_COST", "DEFAULT_TIMER_PERIOD", "PeriodicDaemon",
    "TimerInterrupt",
    "Condition", "CpuBurst", "Process", "ProcessState", "Sleep", "Spawn",
    "WaitCondition", "YieldCpu",
    "SimRandom",
    "DEFAULT_CONTEXT_SWITCH", "DEFAULT_QUANTUM", "Cpu", "Kernel",
    "DEFAULT_SEM_COST", "DEFAULT_SPIN_POLL", "RWLock", "Semaphore",
    "SpinLock",
    "DEFAULT_SYSCALL_COST", "PROFILER_HOOK_COST", "SyscallLayer",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".clock": ("POWERUP_SKEW_SECONDS", "SOFTWARE_SYNC_SECONDS", "TscBank"),
    ".engine": ("CYCLES_PER_SECOND", "Engine", "Event", "cycles_to_seconds",
                "seconds"),
    ".interrupts": ("DEFAULT_TIMER_COST", "DEFAULT_TIMER_PERIOD",
                    "PeriodicDaemon", "TimerInterrupt"),
    ".process": ("Condition", "CpuBurst", "Process", "ProcessState", "Sleep",
                 "Spawn", "WaitCondition", "YieldCpu"),
    ".rng": ("SimRandom",),
    ".scheduler": ("DEFAULT_CONTEXT_SWITCH", "DEFAULT_QUANTUM", "Cpu",
                   "Kernel"),
    ".sync": ("DEFAULT_SEM_COST", "DEFAULT_SPIN_POLL", "RWLock", "Semaphore",
              "SpinLock"),
    ".syscalls": ("DEFAULT_SYSCALL_COST", "PROFILER_HOOK_COST",
                  "SyscallLayer"),
})
