"""``ingest``: push→ack through a real ``osprof serve --db`` subprocess.

The server runs in its own process (started through
``serve_launcher.py``) with a short segment length, so segment
rotation, alerter scoring and warehouse flushes recur all through the
run.  The load generator is this process, with two connections:

* open loop (``OPEN_SHARE`` of the window): connection A sends
  ``PUSH_SEQ`` latency segments at ``PUSH_RATE``/s and connection B
  sends ``STATE_PUSH`` wait-state profiles at ``STATE_RATE``/s, both
  far below capacity.  Each push is timed from when it was due.
* closed loop (the rest): both connections keep ``PIPELINE_DEPTH``
  ``PUSH_SEQ`` requests in flight; acked pushes per second of server
  CPU time, median over windows of ``RATE_WINDOW_S``, is the capacity
  figure.
"""

from __future__ import annotations

import bisect
import itertools
import json
import os
import random
import re
import signal
import socket
import subprocess
import sys
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Deque, Dict, List, Optional, Tuple

from common import (CAL_ITERATIONS, ELASTICITY, REFERENCE_CAL_S, ROOT,
                    Checks, RefClock, calibration_loop, median, metric,
                    peak_rss_mb, percentile, remove_work_dir, rng,
                    speed_factor, typical, windowed, work_dir)
from inputs import capture_pool

LAUNCHER = Path(__file__).resolve().parent / "serve_launcher.py"

SEGMENT_SECONDS = 0.25
PUSH_RATE = 500.0
STATE_RATE = 25.0
OPEN_SHARE = 0.6
#: Open-loop latency percentiles and closed-loop rates are taken per
#: window of these lengths.
LATENCY_WINDOW_S = 1.0
RATE_WINDOW_S = 1.0
#: The end-to-end latency is this percentile of ``PUSH_SEQ``
#: due-time→ack: a push the host's noise left alone, so the cost of the
#: push path itself.  Host noise only adds latency, and on a slow spell
#: it lifts the median by up to ~75% (the generator waits behind the
#: server, and ``STATE_PUSH`` commits stall the loop longer) while the
#: 5th percentile rises with the CPU's speed alone.  The median and p99
#: are per-layer figures.
LATENCY_PERCENTILE = 5
#: Open-loop latencies follow the calibrations in full: a round trip
#: through two processes and the loopback stack reacts to a busy
#: neighbour as strongly as the calibration loop does.  Of four runs,
#: one in a slow spell, that run's 5th percentile stood 27% above the
#: others' unscaled, 11% scaled by the 0.85th power and 8% in full.
LATENCY_ELASTICITY = 1.0
#: Requests each connection keeps in flight in the closed loop, so the
#: server, not the round trip, bounds the rate.
PIPELINE_DEPTH = 8
#: Server starts timed for the ``setup_s`` median.
SETUP_REPEATS = 5
#: Segments stored before the server starts, so it seeds its alerter.
BASELINE_SEGMENTS = 4
#: A generator that sends this late (p99) is not measuring the server.
LAG_LIMIT_MS = 10.0
#: Iterations of the short calibration loops run while load is applied
#: (about 0.3 ms each), and how often they run: in the open loop in any
#: idle gap longer than ``CAL_GAP_S``, in the closed loop every
#: ``CAL_EVERY`` replies.
GAP_CAL_ITERATIONS = 100
CAL_GAP_S = 0.001
CAL_EVERY = 64
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0

_LISTENING = re.compile(r"listening on ([0-9.]+):(\d+)")
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class Server:
    """One ``osprof serve --db`` child process."""

    def __init__(self, root: Path, name: str, trace: bool = False):
        self.db = root / f"{name}-db"
        self.log_path = root / f"{name}.log"
        self.trace_out = root / f"{name}-trace.json" if trace else None
        self.proc: Optional[subprocess.Popen] = None
        self.address: Optional[Tuple[str, int]] = None

    def seed_baseline(self, pool: List[bytes], picker: random.Random):
        from repro.core.profileset import ProfileSet
        from repro.warehouse import Warehouse
        Warehouse(self.db).ingest_many("service", [
            (ProfileSet.from_bytes(picker.choice(pool)), None)
            for _ in range(BASELINE_SEGMENTS)])

    def start(self) -> None:
        cmd = [sys.executable, str(LAUNCHER)]
        if self.trace_out is not None:
            cmd += ["--trace-out", str(self.trace_out)]
        cmd += ["serve", "--port", "0", "--db", str(self.db),
                "--segment-seconds", str(SEGMENT_SECONDS),
                "--retention", "100000", "--read-timeout", "120"]
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(cmd, cwd=ROOT,
                                         stdout=subprocess.DEVNULL,
                                         stderr=log)
        deadline = time.perf_counter() + START_TIMEOUT_S
        while time.perf_counter() < deadline:
            text = self.log_path.read_text(errors="replace")
            found = _LISTENING.search(text)
            if found and "baseline seeded" in text:
                self.address = (found.group(1), int(found.group(2)))
                return
            if self.proc.poll() is not None:
                break
            time.sleep(0.002)
        raise RuntimeError(f"server did not start: "
                           f"{self.log_path.read_text(errors='replace')}")

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def cpu_s(self) -> float:
        """CPU seconds the server has used, all threads (``/proc``)."""
        stat = Path(f"/proc/{self.proc.pid}/stat").read_text()
        fields = stat.rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def stop(self) -> None:
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class GapCalibrations:
    """Short calibration loops run on connection A while load is applied.

    Calibrating only before and after a loop samples two moments of a
    CPU whose speed moves within seconds; hundreds of short loops spread
    over the phase sample all of it.  Each is timed in the thread's CPU
    time, so the server holding the shared CPU does not count.  With a
    *probe*, each calibration also marks ``(wall time, probe(), index)``.
    """

    def __init__(self, probe=None):
        self.samples: List[float] = []
        self.probe = probe
        self.marks: List[Tuple[float, float, int]] = []

    def run(self) -> None:
        started = time.thread_time()
        calibration_loop(GAP_CAL_ITERATIONS)
        self.samples.append(time.thread_time() - started)
        if self.probe is not None:
            self.marks.append((time.perf_counter(), self.probe(),
                               len(self.samples)))

    def factor(self, first: int = 0, last: Optional[int] = None,
               elasticity: float = ELASTICITY) -> float:
        """Reference seconds per host second over samples [first, last)."""
        return speed_factor(median(self.samples[first:last]),
                            REFERENCE_CAL_S * GAP_CAL_ITERATIONS
                            / CAL_ITERATIONS, elasticity)


class Conn:
    """One blocking request/reply connection."""

    def __init__(self, address: Tuple[str, int]):
        self.sock = socket.create_connection(address, timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def send(self, ftype: int, payload: bytes = b"") -> None:
        from repro.service.protocol import send_frame
        send_frame(self.sock, ftype, payload)

    def recv(self) -> Tuple[int, bytes]:
        from repro.service.protocol import ProtocolError, recv_frame
        frame = recv_frame(self.sock)
        if frame is None:
            raise ProtocolError("server closed the connection")
        return frame

    def roundtrip(self, ftype: int, payload: bytes = b"") -> Tuple[int, bytes]:
        self.send(ftype, payload)
        return self.recv()

    def close(self) -> None:
        self.sock.close()


@dataclass
class Push:
    """One request: when it was due and acked, and what it carried."""

    state: bool     #: a STATE_PUSH (else a PUSH_SEQ)
    due: float
    acked: float
    ok: bool
    index: int      #: payload index in the pool
    nbytes: int     #: payload bytes
    lag: float      #: how late it was sent once the connection was free

    @property
    def latency_ms(self) -> float:
        return (self.acked - self.due) * 1e3


class Source:
    """Frames for one connection: sequenced pushes or state pushes."""

    def __init__(self, client_id: str, pool: List[bytes], state: bool,
                 picker: random.Random):
        self.client_id = client_id
        self.pool = pool
        self.state = state
        self.picker = picker
        self.seqs = itertools.count(1)

    def next(self) -> Tuple[int, int, bytes, int]:
        from repro.service.protocol import (FrameType, encode_push_seq,
                                            encode_state_push)
        index = self.picker.randrange(len(self.pool))
        body = self.pool[index]
        if self.state:
            return (FrameType.STATE_PUSH, index,
                    encode_state_push(0, body), len(body))
        return (FrameType.PUSH_SEQ, index,
                encode_push_seq(self.client_id, next(self.seqs), body),
                len(body))


def _send(conn: Conn, source: Source, due: float, free_at: float,
          cal: Optional[GapCalibrations]) -> Push:
    from repro.service.protocol import FrameType
    ftype, index, payload, nbytes = source.next()
    if cal is not None and due - time.perf_counter() > CAL_GAP_S:
        cal.run()
    wait = due - time.perf_counter()
    if wait > 0:
        time.sleep(wait)
    sent = time.perf_counter()
    rtype, _reply = conn.roundtrip(ftype, payload)
    acked = time.perf_counter()
    return Push(source.state, due, acked, rtype == FrameType.OK, index,
                nbytes, sent - max(due, free_at))


def open_loop(conn: Conn, source: Source, rate: float, start: float,
              end: float, cal: Optional[GapCalibrations] = None
              ) -> List[Push]:
    pushes: List[Push] = []
    free_at = start
    for i in itertools.count():
        due = start + i / rate
        if due >= end:
            return pushes
        push = _send(conn, source, due, free_at, cal)
        free_at = push.acked
        pushes.append(push)


def closed_loop(conn: Conn, source: Source, end: float,
                cal: Optional[GapCalibrations] = None) -> List[Push]:
    """Keep ``PIPELINE_DEPTH`` pushes in flight until *end*, then drain.

    The calibrations cost this process CPU time only: the rate is per
    second of server CPU time.
    """
    from repro.service.protocol import FrameType
    pushes: List[Push] = []
    inflight: Deque[Tuple[float, int, int]] = deque()
    while True:
        while len(inflight) < PIPELINE_DEPTH and time.perf_counter() < end:
            ftype, index, payload, nbytes = source.next()
            sent = time.perf_counter()
            conn.send(ftype, payload)
            inflight.append((sent, index, nbytes))
        if not inflight:
            return pushes
        rtype, _reply = conn.recv()
        acked = time.perf_counter()
        sent, index, nbytes = inflight.popleft()
        pushes.append(Push(False, sent, acked, rtype == FrameType.OK,
                           index, nbytes, 0.0))
        if cal is not None and len(pushes) % CAL_EVERY == 0:
            cal.run()


class Phase:
    """Open- then closed-loop load against one running server.

    The server runs on this process's CPU (it inherits the pinning), so
    the calibrations taken during each loop measure the speed of the CPU
    both sides ran on.
    """

    def __init__(self, server: Server, psets: List[bytes],
                 sprofs: List[bytes], seed: int, seconds: float):
        self.server = server
        self.psets = psets
        self.source_a = Source("loadgen-a", psets, False,
                               rng(seed, "loadgen-a"))
        self.source_b = Source("loadgen-b", psets, False,
                               rng(seed, "loadgen-b"))
        self.source_state = Source("loadgen-b", sprofs, True,
                                   rng(seed, "loadgen-state"))
        self.open_s = seconds * OPEN_SHARE
        self.closed_s = seconds - self.open_s
        self.open: List[Push] = []
        self.closed: List[Push] = []
        self.open_start = 0.0
        self.open_cal = GapCalibrations()
        self.closed_cal = GapCalibrations(probe=server.cpu_s)
        self.rss_mb = 0.0

    def _open_loop(self, pool, conn_a: Conn, conn_b: Conn) -> None:
        start = self.open_start = time.perf_counter() + 0.05
        end = start + self.open_s
        futures = [pool.submit(open_loop, conn_a, self.source_a, PUSH_RATE,
                               start, end, self.open_cal),
                   pool.submit(open_loop, conn_b, self.source_state,
                               STATE_RATE, start, end)]
        self.open = [p for f in futures for p in f.result()]

    def _closed_loop(self, pool, conn_a: Conn, conn_b: Conn) -> None:
        end = time.perf_counter() + self.closed_s
        futures = [pool.submit(closed_loop, conn_a, self.source_a, end,
                               self.closed_cal),
                   pool.submit(closed_loop, conn_b, self.source_b, end)]
        self.closed = [p for f in futures for p in f.result()]

    def run(self, checks: Checks) -> None:
        conn_a = Conn(self.server.address)
        conn_b = Conn(self.server.address)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                self._open_loop(pool, conn_a, conn_b)
                self._closed_loop(pool, conn_a, conn_b)
            self._check(conn_a, checks)
            self.rss_mb = self.server.peak_rss_mb()
        finally:
            conn_a.close()
            conn_b.close()

    def pushes(self) -> List[Push]:
        return self.open + self.closed

    def _check(self, conn: Conn, checks: Checks) -> None:
        """Every acked push merged exactly once, and nothing else."""
        from repro.core.profileset import ProfileSet
        from repro.service.protocol import FrameType
        for push in self.pushes():
            checks.op(push.ok, "push refused or failed")
        _, page = conn.roundtrip(FrameType.METRICS)
        counters = dict(line.split(" ", 1)
                        for line in page.decode().splitlines()
                        if line.startswith("osprof_") and " " in line)
        acked = [p for p in self.pushes() if p.ok and not p.state]
        acked_states = [p for p in self.open if p.ok and p.state]
        checks.op(int(counters["osprof_ingest_requests_total"])
                  == len(acked),
                  f"server merged {counters['osprof_ingest_requests_total']}"
                  f" pushes, {len(acked)} were acked")
        checks.op(int(counters["osprof_state_pushes_total"])
                  == len(acked_states),
                  "state pushes absorbed != state pushes acked")
        decoded = [ProfileSet.from_bytes(body) for body in self.psets]
        expected = ProfileSet.merged(decoded[p.index] for p in acked)
        _, snapshot = conn.roundtrip(FrameType.SNAPSHOT)
        checks.op(snapshot == expected.to_bytes(),
                  "server snapshot != merge of the acked payloads")
        lag = self.lag_p99_ms()
        checks.op(lag <= LAG_LIMIT_MS,
                  f"load generator fell behind its schedule: lag p99 "
                  f"{lag:.2f} ms > {LAG_LIMIT_MS} ms, latency not valid")

    # -- figures -------------------------------------------------------------

    def latencies(self, state: bool) -> List[List[float]]:
        """Open-loop due-time→ack latencies (reference ms), per window."""
        factor = self.open_cal.factor(elasticity=LATENCY_ELASTICITY)
        return windowed([(p.due, p.latency_ms * factor)
                         for p in self.open if p.state == state],
                        self.open_start, LATENCY_WINDOW_S)

    def lag_p99_ms(self) -> float:
        return percentile([p.lag * 1e3 for p in self.open], 99)

    def pushes_per_s(self) -> float:
        """Closed-loop acked pushes per reference second of server CPU.

        The event loop is single-threaded, so this is its capacity; wall
        time would add how promptly the two processes hand the CPU to
        each other, which swings far more than the server's cost.  The
        rate is taken between calibration marks at least
        ``RATE_WINDOW_S`` apart (the server's CPU time counts in 10 ms
        ticks), each window scaled by its own calibrations, and the
        median over windows is reported.
        """
        acked = sorted(p.acked for p in self.closed if p.ok)
        marks = self.closed_cal.marks

        def rate(start, end) -> float:
            count = (bisect.bisect(acked, end[0])
                     - bisect.bisect(acked, start[0]))
            factor = self.closed_cal.factor(start[2], end[2])
            return count / ((end[1] - start[1]) * factor)

        rates = []
        start = marks[0]
        for mark in marks[1:]:
            if mark[0] - start[0] >= RATE_WINDOW_S:
                rates.append(rate(start, mark))
                start = mark
        return median(rates) if rates else rate(marks[0], marks[-1])

    def acked_bytes(self) -> int:
        return sum(p.nbytes for p in self.pushes() if p.ok)


def _run_server_phase(root: Path, name: str, trace: bool, psets, sprofs,
                      seed: int, seconds: float, checks: Checks,
                      started: Optional[Server] = None
                      ) -> Tuple[Phase, Optional[dict]]:
    server = started or Server(root, name, trace=trace)
    try:
        if started is None:
            server.seed_baseline(psets, rng(seed, "baseline"))
            server.start()
        phase = Phase(server, psets, sprofs, seed, seconds)
        phase.run(checks)
    finally:
        server.stop()
    stats = None
    if server.trace_out is not None:
        stats = json.loads(server.trace_out.read_text())
    return phase, stats


def setup(root: Path, psets: List[bytes], seed: int, clock: RefClock
          ) -> Tuple[float, Server]:
    """Seed a warehouse and start the server on it, several times.

    Returns the median set-up time (reference seconds) and the last
    server, left running.
    """
    times = []
    server = None

    def one_setup(attempt: int) -> Server:
        nonlocal server
        server = Server(root, f"setup{attempt}")
        server.seed_baseline(psets, rng(seed, "baseline"))
        server.start()
        return server

    try:
        for attempt in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            times.append(clock.time(one_setup, attempt)[1])
    except BaseException:
        if server is not None:
            server.stop()
        raise
    return median(times), server


def run(workload: str, seed: int, seconds: float, trace: bool,
        checks: Checks):
    root = work_dir(workload)
    try:
        psets, sprofs = capture_pool(seed)
        if not trace:
            setup_s, server = setup(root, psets, seed, RefClock())
            phase, _ = _run_server_phase(root, "run", False, psets, sprofs,
                                         seed, seconds, checks,
                                         started=server)
            return end_to_end(phase, setup_s), notes(phase)
        from layers import per_layer_metrics
        plain, _ = _run_server_phase(root, "plain", False, psets, sprofs,
                                     seed, seconds / 2, checks)
        traced, stats = _run_server_phase(root, "traced", True, psets,
                                          sprofs, seed, seconds / 2, checks)
        overhead = (plain.pushes_per_s() / traced.pushes_per_s()
                    - 1.0) * 100.0
        extras = {
            "bench.loadgen.lag_p99_ms": plain.lag_p99_ms(),
            "bench.tracing_overhead_pct": overhead,
            "push_ack_p50_ms": typical(plain.latencies(False), 50),
            "push_ack_p99_ms": typical(plain.latencies(False), 99),
            "state_push_ack_p50_ms": typical(plain.latencies(True), 50),
            "error_ratio": checks.ratio(),
        }
        return (per_layer_metrics(stats, extras,
                                  write_amp_base=traced.acked_bytes()),
                notes(plain) + notes(traced))
    finally:
        remove_work_dir(root)


def end_to_end(phase: Phase, setup_s: float) -> Dict[str, Dict[str, object]]:
    pushes = phase.latencies(False)
    return {
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(phase.rss_mb, "MB"),
        "ops_per_s": metric(phase.pushes_per_s(), "1/s"),
        "latency_ms": metric(typical(pushes, LATENCY_PERCENTILE), "ms"),
    }


def notes(phase: Phase) -> List[str]:
    pushes = phase.latencies(False)
    states = phase.latencies(True)
    return [f"ingest: open loop {sum(map(len, pushes))} PUSH_SEQ p5 "
            f"{typical(pushes, LATENCY_PERCENTILE):.3f} ms p50 "
            f"{typical(pushes, 50):.3f} ms p99 {typical(pushes, 99):.3f} "
            f"ms, {sum(map(len, states))} STATE_PUSH p50 "
            f"{typical(states, 50):.3f} ms; closed loop "
            f"{len(phase.closed)} pushes, {phase.pushes_per_s():.0f}/s; "
            f"generator lag p99 {phase.lag_p99_ms():.3f} ms; host speed "
            f"{phase.open_cal.factor():.3f} open "
            f"({len(phase.open_cal.samples)} calibrations), "
            f"{phase.closed_cal.factor():.3f} closed "
            f"({len(phase.closed_cal.samples)})"]
