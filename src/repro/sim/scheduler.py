"""The simulated kernel: CPUs, run queue, quantum, preemption.

This is the substrate standing in for the Linux/FreeBSD/Windows kernels
the paper instruments.  It is a round-robin scheduler over N CPUs:

* Each dispatch grants a fresh scheduling **quantum** (default 58 ms,
  the paper's measured value, which lands in bucket 26 at 1.7 GHz).
* A process whose quantum expires mid-:class:`CpuBurst` is **forcibly
  preempted** if the kernel is built with in-kernel preemption or the
  process is in user mode; on a non-preemptive kernel (Linux 2.4,
  FreeBSD 5.2) preemption is deferred to the next user-mode boundary —
  exactly the distinction Figure 3 measures.
* Context switches cost ~5.5 us of latency (a characteristic time the
  paper uses for peak attribution).
* Each CPU has its own TSC with power-up skew (:mod:`repro.sim.clock`).

Processes are generator coroutines (:mod:`repro.sim.process`).  The
scheduler maintains the invariant that, between events, a RUNNING
process always has exactly one pending completion event for its current
burst chunk.  A burst whose completion would be the very next event is
not queued at all: :meth:`Kernel.burn` asks :meth:`Engine.advance
<repro.sim.engine.Engine.advance>` to move the clock to its end and
accounts it on the spot.  Hot kernel code calls ``burn`` from inside
the generator, so such a burst is never even yielded; a yielded
:class:`CpuBurst` goes through the same ``burn`` in the stepping loop
before it is queued.  An in-place completion counts as an event and
runs the queued path's accounting, so every clock value, event count
and profile is what a queued completion would give.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Sequence, Set

from .clock import POWERUP_SKEW_SECONDS, TscBank
from .engine import Engine, Event, seconds
from .process import (Condition, CpuBurst, Process, ProcessState, ProcBody,
                      Sleep, Spawn, WaitCondition, YieldCpu)
from .rng import SimRandom

__all__ = ["Cpu", "Kernel", "DEFAULT_QUANTUM", "DEFAULT_CONTEXT_SWITCH"]

#: The paper's measured scheduling quantum (~58 ms -> bucket 26).
DEFAULT_QUANTUM = seconds(58e-3)

#: The paper's measured context-switch time (~5.5 us).
DEFAULT_CONTEXT_SWITCH = seconds(5.5e-6)


class Cpu:
    """One simulated CPU: its current process and pending chunk event."""

    __slots__ = ("index", "current", "chunk_event", "chunk_end",
                 "chunk_size", "chunk_started", "last_pid", "busy_cycles")

    def __init__(self, index: int):
        self.index = index
        self.current: Optional[Process] = None
        self.chunk_event: Optional[Event] = None
        self.chunk_end = 0.0
        self.chunk_size = 0.0
        self.chunk_started = 0.0
        self.last_pid: Optional[int] = None
        self.busy_cycles = 0.0

    @property
    def idle(self) -> bool:
        return self.current is None

    def __repr__(self) -> str:
        running = self.current.name if self.current else "idle"
        return f"<Cpu {self.index} {running}>"


class Kernel:
    """Round-robin SMP scheduler driving generator processes."""

    def __init__(self, engine: Optional[Engine] = None, num_cpus: int = 1,
                 quantum: float = DEFAULT_QUANTUM,
                 kernel_preemption: bool = False,
                 context_switch_cost: float = DEFAULT_CONTEXT_SWITCH,
                 rng: Optional[SimRandom] = None,
                 tsc_skew_seconds: float = POWERUP_SKEW_SECONDS):
        if num_cpus < 1:
            raise ValueError("need at least one CPU")
        if quantum <= 0:
            raise ValueError("quantum must be positive")
        self.engine = engine if engine is not None else Engine()
        self.quantum = quantum
        self.kernel_preemption = kernel_preemption
        self.context_switch_cost = context_switch_cost
        self.rng = rng if rng is not None else SimRandom()
        self.cpus = [Cpu(i) for i in range(num_cpus)]
        self.tsc = TscBank(num_cpus, self.rng.fork("tsc"), tsc_skew_seconds)
        self.run_queue: Deque[Process] = deque()
        self._next_pid = 1
        self.processes: List[Process] = []
        self._exit_conditions: Dict[int, Condition] = {}
        self.context_switches = 0
        # The processes run_until_done still waits for; the last one to
        # exit halts the engine.
        self._awaited: Set[Process] = set()
        #: The process whose generator is currently being advanced, so
        #: completion-side code (the disk driver) can attribute submitted
        #: work to the submitting request's pipeline context.
        self.stepping: Optional[Process] = None

    # -- time ----------------------------------------------------------------

    @property
    def now(self) -> float:
        """True simulated time in cycles (the engine clock)."""
        return self.engine.now

    def read_tsc(self, proc: Process) -> float:
        """TSC of the CPU the process is currently running on.

        This is what instrumentation observes: migrating between skewed
        CPUs mid-request perturbs the measured latency (Section 3.4).
        """
        cpu = proc.cpu if proc.cpu is not None else 0
        return self.tsc.read(cpu, self.engine.now)

    # -- process lifecycle ------------------------------------------------------

    def spawn(self, body, name: str = "") -> Process:
        """Create a process running *body* and make it runnable.

        *body* is either a generator, or a callable taking the new
        :class:`Process` and returning a generator — the common idiom
        for bodies that need their own process handle (to pass to
        semaphores, the syscall layer, etc.).  The child does not start
        executing until the current event completes, so ``spawn``
        always returns before the child's first instruction.
        """
        proc = Process(self._next_pid, name, None)
        self._next_pid += 1
        proc.gen = body(proc) if callable(body) else body
        proc.started_at = self.engine.now
        proc.quantum_left = self.quantum
        self.processes.append(proc)
        self._exit_conditions[proc.pid] = Condition(f"exit:{proc.name}")
        self.run_queue.append(proc)
        self.engine.schedule(0.0, self._maybe_dispatch)
        return proc

    def join(self, proc: Process) -> ProcBody:
        """Effect generator: block until *proc* exits; value is its result."""
        if proc.done:
            return proc.exit_value
            yield  # pragma: no cover - makes this a generator
        result = yield WaitCondition(self._exit_conditions[proc.pid])
        return result

    # -- condition plumbing (used by sync primitives and devices) ---------------

    def fire_condition(self, cond: Condition, value: Any = None,
                       wake_all: bool = True) -> int:
        """Wake waiter(s) of a condition; returns how many woke."""
        if not cond.waiters:
            return 0
        if wake_all:
            woken, cond.waiters = cond.waiters, []
        else:
            woken = [cond.waiters.pop(0)]
        for proc in woken:
            proc.send_value = value
            self._wake(proc)
        return len(woken)

    # -- dispatch machinery -------------------------------------------------------

    def _idle_cpu(self) -> Optional[Cpu]:
        for cpu in self.cpus:
            if cpu.idle:
                return cpu
        return None

    def _maybe_dispatch(self) -> None:
        events = self.engine.events_processed
        while self.run_queue:
            cpu = self._idle_cpu()
            if cpu is None:
                return
            self._dispatch(cpu)
            if self.engine.events_processed != events:
                # The dispatched process completed a burst in place,
                # which it only does when this loop would have ended
                # there: what follows belongs to later events.
                return

    def _dispatch(self, cpu: Cpu) -> None:
        proc = self.run_queue.popleft()
        proc.state = ProcessState.RUNNING
        proc.cpu = cpu.index
        proc.quantum_left = self.quantum
        cpu.current = proc
        switch_cost = 0.0
        if cpu.last_pid is not None and cpu.last_pid != proc.pid:
            switch_cost = self.context_switch_cost
            self.context_switches += 1
        cpu.last_pid = proc.pid
        if switch_cost > 0:
            self.engine.schedule(switch_cost,
                                 lambda p=proc: self._continue(p))
        else:
            self._continue(proc)

    def _release_cpu(self, proc: Process) -> None:
        if proc.cpu is not None:
            cpu = self.cpus[proc.cpu]
            if cpu.current is proc:
                cpu.current = None
                cpu.chunk_event = None
        proc.cpu = None

    def _continue(self, proc: Process) -> None:
        """Resume a RUNNING process: finish its burst or step its generator."""
        if proc.state != ProcessState.RUNNING:
            return
        if proc.remaining_burst > 0:
            self._run_chunk(proc)
        else:
            self._step(proc)

    # -- burst execution -----------------------------------------------------------

    def burn(self, proc: Process, cycles: float) -> bool:
        """Complete a CPU burst of *proc* in place, if it is the next event.

        Callable from inside the generator the kernel is stepping: when
        True the burst is done, accounted through the same path as a
        queued chunk; when False nothing changed and the caller yields
        ``CpuBurst(cycles)`` instead.  An empty burst is always done.  A
        burst runs in place only when *proc* is the process being
        stepped, no deferred preemption is due, the burst fits the
        quantum without a forced preemption at its end, and
        :meth:`Engine.advance <repro.sim.engine.Engine.advance>` accepts
        its end time.
        """
        if not 0 <= cycles < math.inf:
            raise ValueError("burst cycles must be finite and "
                             f"non-negative, got {cycles!r}")
        if cycles == 0:
            return True
        if proc is not self.stepping:
            return False
        run_queue = self.run_queue
        left = proc.quantum_left
        if run_queue and (
                (proc.preempt_pending and proc.in_kernel == 0)
                or (left - cycles <= 1e-9
                    and self._can_force_preempt(proc))):
            return False
        if cycles > left:
            return False
        # A dispatcher with more to hand out always has another dispatch
        # event queued at this time, so advance refuses.
        engine = self.engine
        start = engine.now
        if not engine.advance(start + cycles):
            return False
        cpu = self.cpus[proc.cpu]
        proc.remaining_burst = cycles
        cpu.chunk_size = cycles
        cpu.chunk_started = start
        cpu.chunk_end = engine.now
        self._account_chunk(proc, cpu)
        return True

    def _run_chunk(self, proc: Process) -> None:
        cpu = self.cpus[proc.cpu]
        if proc.quantum_left <= 0:
            self._quantum_expired(proc)
            return
        chunk = min(proc.remaining_burst, proc.quantum_left)
        cpu.chunk_size = chunk
        cpu.chunk_started = self.engine.now
        cpu.chunk_end = self.engine.now + chunk
        cpu.chunk_event = self.engine.schedule(
            chunk, lambda p=proc: self._chunk_done(p))

    def _chunk_done(self, proc: Process) -> None:
        cpu = self.cpus[proc.cpu]
        cpu.chunk_event = None
        if self._account_chunk(proc, cpu):
            self._step(proc)

    def _account_chunk(self, proc: Process, cpu: Cpu) -> bool:
        """Charge the chunk that just ended on *cpu*; apply the quantum.

        The one completion path for queued and in-place chunks alike.
        Returns True when the process keeps the CPU and its generator
        should be stepped; False when quantum expiry requeued it or ran
        another chunk of the same burst.
        """
        chunk = cpu.chunk_size
        proc.cpu_time += chunk
        if proc.in_kernel > 0:
            proc.sys_time += chunk
        else:
            proc.user_time += chunk
        cpu.busy_cycles += chunk
        proc.remaining_burst -= chunk
        proc.quantum_left -= chunk
        if proc.remaining_burst > 1e-9:
            # Quantum expired mid-burst.
            self._quantum_expired(proc)
            return False
        proc.remaining_burst = 0.0
        if proc.quantum_left <= 1e-9:
            # Quantum expired exactly at the burst boundary.
            if self.run_queue and self._can_force_preempt(proc):
                proc.preemptions += 1
                self._requeue(proc)
                return False
            proc.quantum_left = self.quantum
            if self.run_queue:
                proc.preempt_pending = True
        return True

    def _can_force_preempt(self, proc: Process) -> bool:
        return self.kernel_preemption or proc.in_kernel == 0

    def _quantum_expired(self, proc: Process) -> None:
        """The quantum ran out while the process still wants CPU."""
        if not self.run_queue:
            # Nobody to run instead: grant a fresh quantum.
            proc.quantum_left = self.quantum
            self._run_chunk(proc)
            return
        if self._can_force_preempt(proc):
            proc.preemptions += 1
            self._requeue(proc)
            return
        # Non-preemptive kernel: let the request finish; preempt at the
        # next user-mode boundary.
        proc.preempt_pending = True
        proc.quantum_left = self.quantum
        self._run_chunk(proc)

    # -- generator stepping -----------------------------------------------------------

    def _step(self, proc: Process) -> None:
        """Advance the generator until it blocks, burns CPU, or exits."""
        previous = self.stepping
        self.stepping = proc
        try:
            self._step_inner(proc)
        finally:
            self.stepping = previous

    def _step_inner(self, proc: Process) -> None:
        while True:
            try:
                effect = proc.gen.send(proc.send_value)
            except StopIteration as stop:
                self._finish(proc, stop.value)
                return
            proc.send_value = None

            if isinstance(effect, CpuBurst):
                cycles = effect.cycles
                if self.burn(proc, cycles):
                    continue
                proc.remaining_burst = cycles
                # Deferred (non-preemptive-kernel) preemption happens at
                # the first effect boundary where the process is in user
                # mode.
                if proc.preempt_pending and proc.in_kernel == 0 \
                        and self.run_queue:
                    proc.preempt_pending = False
                    proc.preemptions += 1
                    self._requeue(proc)
                    return
                self._run_chunk(proc)
                return
            if isinstance(effect, Sleep):
                proc.preempt_pending = False
                proc.wait_site = "sleep"
                self._block(proc)
                self.engine.schedule(effect.cycles,
                                     lambda p=proc: self._wake(p))
                return
            if isinstance(effect, WaitCondition):
                proc.preempt_pending = False
                proc.wait_site = effect.condition.name or "condition"
                effect.condition.waiters.append(proc)
                self._block(proc)
                return
            if isinstance(effect, YieldCpu):
                proc.voluntary_switches += 1
                proc.preempt_pending = False
                if self.run_queue:
                    self._requeue(proc)
                    return
                proc.quantum_left = self.quantum
                continue
            if isinstance(effect, Spawn):
                child = self.spawn(effect.body, effect.name)
                proc.send_value = child
                if proc.state != ProcessState.RUNNING:
                    # spawn() may have dispatched the child onto our CPU?
                    # It cannot: we are RUNNING and hold this CPU.  But a
                    # defensive stop keeps the invariant explicit.
                    return
                continue
            raise TypeError(f"process {proc.name} yielded "
                            f"unknown effect {effect!r}")

    # -- state transitions ---------------------------------------------------------------

    def _schedule_dispatch(self) -> None:
        """Run the dispatcher as its own event, never nested in a _step."""
        self.engine.schedule(0.0, self._maybe_dispatch)

    def _requeue(self, proc: Process) -> None:
        proc.state = ProcessState.RUNNABLE
        self._release_cpu(proc)
        self.run_queue.append(proc)
        self._schedule_dispatch()

    def _block(self, proc: Process) -> None:
        proc.state = ProcessState.BLOCKED
        proc.last_blocked_at = self.engine.now
        self._release_cpu(proc)
        self._schedule_dispatch()

    def _wake(self, proc: Process) -> None:
        if proc.state != ProcessState.BLOCKED:
            return
        proc.wait_time += self.engine.now - proc.last_blocked_at
        proc.wait_site = None
        proc.state = ProcessState.RUNNABLE
        self.run_queue.append(proc)
        self._schedule_dispatch()
        self._wakeup_preempt()

    def _wakeup_preempt(self) -> None:
        """Let an I/O-bound waker displace a user-mode CPU hog.

        Unix schedulers boost processes returning from I/O waits; the
        practical effect is that a process spinning in user space is
        preempted as soon as a blocked process wakes.  Kernel-mode code
        is displaced only on kernels built with in-kernel preemption —
        the same rule as quantum expiry (Section 3.3).
        """
        if self._idle_cpu() is not None:
            return
        for cpu in self.cpus:
            proc = cpu.current
            if proc is None or cpu.chunk_event is None \
                    or cpu.chunk_event.cancelled:
                continue
            if not self._can_force_preempt(proc):
                continue
            self._preempt_running(cpu)
            return

    def _preempt_running(self, cpu: Cpu) -> None:
        """Forcibly preempt the process running on *cpu* mid-chunk."""
        proc = cpu.current
        event = cpu.chunk_event
        if proc is None or event is None:
            return
        self.engine.cancel(event)
        cpu.chunk_event = None
        executed = min(cpu.chunk_size,
                       max(0.0, self.engine.now - cpu.chunk_started))
        proc.cpu_time += executed
        if proc.in_kernel > 0:
            proc.sys_time += executed
        else:
            proc.user_time += executed
        cpu.busy_cycles += executed
        proc.remaining_burst = max(0.0, proc.remaining_burst - executed)
        proc.quantum_left = max(0.0, proc.quantum_left - executed)
        proc.preemptions += 1
        self._requeue(proc)

    def _finish(self, proc: Process, value: Any) -> None:
        proc.state = ProcessState.DONE
        proc.wait_site = None
        proc.exit_value = value
        proc.finished_at = self.engine.now
        self._release_cpu(proc)
        self.fire_condition(self._exit_conditions[proc.pid], value,
                            wake_all=True)
        self._schedule_dispatch()
        if proc in self._awaited:
            self._awaited.remove(proc)
            if not self._awaited:
                self.engine.halt()

    # -- interrupt support ------------------------------------------------------------------

    def delay_current_chunk(self, cpu_index: int, cost: float) -> bool:
        """Steal *cost* cycles from whatever runs on a CPU (interrupt).

        The running process's burst completion is pushed back by the
        interrupt handler's cost; its own CPU accounting is unchanged —
        the latency increase is pure interference, which is exactly what
        shows up as the small timer-interrupt peaks of Figure 3.
        Returns True if a process was actually delayed.
        """
        cpu = self.cpus[cpu_index]
        if cpu.chunk_event is None or cpu.chunk_event.cancelled:
            return False
        proc = cpu.current
        if proc is None:
            return False
        self.engine.cancel(cpu.chunk_event)
        cpu.chunk_end += cost
        cpu.chunk_event = self.engine.schedule_at(
            cpu.chunk_end, lambda p=proc: self._chunk_done(p))
        return True

    # -- driving ----------------------------------------------------------------------

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        """Run the event loop (bounded by time and/or event count)."""
        self.engine.run(until=until, max_events=max_events)

    def shutdown(self) -> None:
        """Close the generators of still-live processes.

        Call after a time-bounded run (``run(until=...)``) abandons
        endless workload processes: closing inside arbitrary yield
        points may raise RuntimeError from cleanup code (e.g. lock
        releases in finally blocks), which is expected and suppressed.
        """
        for proc in self.processes:
            if proc.done or proc.gen is None:
                continue
            try:
                proc.gen.close()
            except RuntimeError:
                pass
            proc.state = ProcessState.DONE
            proc.wait_site = None

    def run_until_done(self, procs: Sequence[Process],
                       max_events: int = 50_000_000) -> None:
        """Run until every process in *procs* has exited.

        Stops at the exact event that completes the last process, so
        unrelated periodic events (timer ticks, flush daemons) do not
        run the clock past the workload's end: that process's exit
        halts the engine.  When all of them have already exited, one
        event runs.
        """
        self._awaited = {p for p in procs if not p.done}
        if not self._awaited:
            self.engine.halt()
        try:
            consumed = self.engine.run(max_events=max_events)
        finally:
            self._awaited = set()
        stuck = [p.name for p in procs if not p.done]
        if stuck:
            if consumed >= max_events:
                raise RuntimeError(
                    f"event budget exhausted with processes pending: "
                    f"{stuck}")
            raise RuntimeError(
                f"deadlock: no events pending but processes not done: "
                f"{stuck}")
