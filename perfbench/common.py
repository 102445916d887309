"""Shared plumbing: locating the program, seeds, statistics, results."""

from __future__ import annotations

import heapq
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: The checkout root: the benchmark runs from it, and builds nothing —
#: the program is the pure-Python package under ``src/``.
ROOT = Path.cwd()
SRC = ROOT / "src"
PINS = ROOT / "tests" / "integration" / "profile_pins.json"
STATE_PINS = ROOT / "tests" / "integration" / "state_pins.json"

#: The seed every profile pin was captured at.
PINNED_SEED = 2006

#: The four clean pinned scenarios, in run order.
SCENARIOS = ("spindle-randomread", "ssd-gc", "raid0-stripe",
             "throttled-iops")

#: The pinned wait-state sampling interval: 0.5 ms of simulated time.
SAMPLE_INTERVAL_S = 0.0005


class ProgramMissing(RuntimeError):
    """The checkout does not hold the program the benchmark measures."""


def use_program() -> None:
    """Put the checkout's ``src/`` first on the import path."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"no program at {SRC / 'repro'}")
    for path in (PINS, STATE_PINS):
        if not path.is_file():
            raise ProgramMissing(f"missing pin file {path}")
    sys.path.insert(0, str(SRC))


def run_cli(*argv: str) -> None:
    """Run one ``osprof`` command in a fresh interpreter.

    Waits with a blocking ``waitpid``: a wait with a timeout polls with
    sleeps of up to 50 ms, which would quantize a timing around it.
    """
    child = subprocess.Popen([sys.executable, "-m", "repro.cli", *argv],
                             env={**os.environ, "PYTHONPATH": str(SRC)},
                             cwd=ROOT,
                             stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL)
    code = child.wait()
    if code != 0:
        raise RuntimeError(f"osprof {' '.join(argv)} exited {code}")


def load_pins() -> Dict[str, str]:
    return json.loads(PINS.read_text())


def load_state_pins() -> Dict[str, str]:
    return json.loads(STATE_PINS.read_text())


def derive(seed: int, salt: str) -> int:
    """A sub-seed of the workload seed (the program's own derivation)."""
    from repro.sim.rng import derive_seed
    return derive_seed(seed, salt)


def rng(seed: int, salt: str) -> random.Random:
    return random.Random(derive(seed, salt))


# -- statistics -----------------------------------------------------------

def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def windowed(samples: Sequence[Tuple[float, float]], start: float,
             width: float) -> List[List[float]]:
    """Group ``(time, value)`` samples into windows of *width* seconds."""
    windows: Dict[int, List[float]] = {}
    for at, value in samples:
        windows.setdefault(int((at - start) // width), []).append(value)
    return [windows[key] for key in sorted(windows)]


def typical(windows: Sequence[Sequence[float]], q: float) -> float:
    """Median over windows of each window's *q*-th percentile.

    Host noise here comes in bursts that slow everything for a fraction
    of a second; a burst spoils the windows it overlaps, and the median
    over windows sets them aside instead of averaging them in.
    """
    return median([percentile(values, q) for values in windows if values])


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set size (VmHWM) of *pid*, or of this process."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    status = Path(f"/proc/{pid}/status").read_text()
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# -- host speed ---------------------------------------------------------------
#
# On a shared host the speed of one CPU changes by up to ~1.6x over
# seconds to minutes, as other tenants load the physical core under it,
# and CPU time slows with it.  No median inside one run filters out a
# shift that lasts longer than the run, so every timing is taken between
# two runs of a fixed calibration loop and rescaled to *reference
# seconds*: host seconds times ``(REFERENCE_CAL_S / calibration time
# measured around the work) ** ELASTICITY``.  On a host where the loop
# takes ``REFERENCE_CAL_S`` the two are the same.  The loop is the
# benchmark's own code, so a change to the program moves the work and
# not the scale.

#: Host seconds one calibration loop takes on the reference host: about
#: its median on the 2-vCPU x86-64 VM the bounds were set on.
REFERENCE_CAL_S = 0.0085
#: Iterations of one calibration loop.
CAL_ITERATIONS = 3000
#: How strongly the program's speed follows the loop's.  The loop's
#: small working set makes it react more to a busy neighbour than most
#: of the program does: regressing log capture time on log calibration
#: time over three 100-150 s spells of host noise gave slopes of
#: 0.67-0.71 for single captures of one scenario, and over ten runs of
#: every workload the exponent that left the smallest spread was 0.7 on
#: ``capture`` and ``warehouse`` and 0.85-1.0 on ``capture-sampled`` and
#: ``ingest``.  0.85 kept every end-to-end spread of those ten runs
#: within 0.08 of its median, against up to 0.2 unscaled and 0.11
#: scaled in full.
ELASTICITY = 0.85
#: Loops per calibration; the fastest one counts, which drops a loop an
#: interrupt or a preemption landed on.
CAL_LOOPS = 3


class _Event:
    __slots__ = ("at", "kind", "data")

    def __init__(self, at: int, kind: int, data: list):
        self.at = at
        self.kind = kind
        self.data = data

    def __lt__(self, other: "_Event") -> bool:
        return self.at < other.at


def calibration_loop(iterations: int = CAL_ITERATIONS) -> int:
    """Interpreter-bound work shaped like the simulator's inner loop:
    a heap of small objects, tuple-keyed dict updates, method calls."""
    heap: List[_Event] = []
    table: Dict[Tuple[int, int], int] = {}
    x = 12345
    for i in range(iterations):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, _Event(x % 1000, i & 7, [i, x]))
        if len(heap) > 64:
            event = heapq.heappop(heap)
            key = (event.kind, event.at & 63)
            table[key] = table.get(key, 0) + len(event.data)
    return sum(table.values())


def speed_factor(calibration_s: float, reference_s: float,
                 elasticity: float = ELASTICITY) -> float:
    """Reference seconds per host second, from a calibration's time."""
    return (reference_s / calibration_s) ** elasticity


def calibrate() -> float:
    """Host seconds of one calibration loop, now."""
    best = float("inf")
    for _ in range(CAL_LOOPS):
        started = time.perf_counter()
        calibration_loop()
        best = min(best, time.perf_counter() - started)
    return best


class RefClock:
    """Times work in reference seconds.

    Each :meth:`time` call calibrates after the work and pairs that with
    the calibration taken after the previous call, so a run of timed
    pieces costs one calibration per piece.  *timer* is wall time by
    default; :func:`user_cpu_s` counts this process's user-mode CPU time
    only, leaving out the kernel's file-system work and waits for disk.
    """

    def __init__(self, timer=time.perf_counter):
        self.timer = timer
        self.last = calibrate()
        #: Reference seconds per host second of the latest timed piece.
        self.factor = 1.0
        self.factors: List[float] = []

    def time(self, fn, *args, **kwargs):
        """``(fn(...), its duration in reference seconds)``."""
        before = self.last
        started = self.timer()
        value = fn(*args, **kwargs)
        elapsed = self.timer() - started
        self.last = calibrate()
        self.factor = speed_factor((before + self.last) / 2.0,
                                   REFERENCE_CAL_S)
        self.factors.append(self.factor)
        return value, elapsed * self.factor

    def speed(self) -> float:
        """Median host speed over the timed pieces, reference = 1."""
        return median(self.factors)


def user_cpu_s() -> float:
    """User-mode CPU seconds of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_utime


def pin_to_one_cpu() -> None:
    """Run this process, and every child it starts, on one CPU.

    A process moved between CPUs lands on a core with other neighbours
    and other speed, mid-measurement; two processes on two CPUs also
    wait for each other's wake-ups across CPUs.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Deadline:
    """The measuring window of one phase."""

    def __init__(self, seconds: float):
        self.end = time.perf_counter() + seconds

    def passed(self) -> bool:
        return time.perf_counter() >= self.end


# -- bookkeeping ------------------------------------------------------------

class Checks:
    """Operations attempted and failed, with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def op(self, ok: bool, problem: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)
        return ok

    def ratio(self) -> float:
        return ratio(self.failed, self.attempted)


def work_dir(workload: str) -> Path:
    """A fresh scratch directory inside the checkout (removed at exit)."""
    path = ROOT / ".perfbench-work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def remove_work_dir(path: Path) -> None:
    """Remove a work directory and flush the deletion to disk.

    The sync keeps this run's writeback from landing on the next run.
    """
    shutil.rmtree(path, ignore_errors=True)
    try:
        path.parent.rmdir()
    except OSError:
        pass  # another run's directory is still there
    os.sync()


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def emit(checks: Checks, metrics: Dict[str, Dict[str, object]],
         notes: Iterable[str] = ()) -> None:
    """Human notes on stderr, then the one-line JSON result on stdout."""
    for note in notes:
        print(note, file=sys.stderr)
    for problem in checks.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": checks.failed == 0,
                      "attempted": checks.attempted,
                      "failed": checks.failed,
                      "metrics": metrics}))
