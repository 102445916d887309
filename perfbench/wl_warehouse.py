"""``warehouse``: the offline ``osprof db`` operations.

Set-up generates a multi-source warehouse of tier-0 latency segments
plus ``samples`` segments, filled with profiles captured at seeds
derived from the workload seed, and a named baseline for drift queries.
Each pass then works on a fresh copy of it and does, in order: open
(journal replay), a cold full-history query per source, repeated warm
queries, a fixed set of SQL statements, compaction to a fixpoint, and a
scrub.  The simulator is idle here.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from common import (Checks, Deadline, RefClock, median, metric,
                    peak_rss_mb, remove_work_dir, rng, typical, user_cpu_s,
                    work_dir)
from inputs import capture_pool

SOURCES = ("web", "db", "batch")
#: Tier-0 latency segments per source; every ``SAMPLE_EVERY``-th epoch
#: also stores a wait-state ``samples`` segment.
EPOCHS = 500
SAMPLE_EVERY = 8
#: Segments committed per ``ingest_many`` call while generating.
BATCH = 200
#: Warm full-history queries per pass (round robin over the sources).
WARM_QUERIES = 30
#: Generations timed for the ``setup_s`` median.
SETUP_REPEATS = 5
#: Passes in the traced half: a fixed amount of work, so the call
#: counts repeat exactly for a given seed.
TRACED_PASSES = 3

SQL = (
    "SELECT op, count(), p50(), p99() GROUP BY op ORDER BY count() DESC",
    "SELECT op, p99_drift('base'), emd('base') WHERE source = 'web' "
    "GROUP BY op ORDER BY emd('base') DESC LIMIT 5",
    "SELECT state, wait_site, count() GROUP BY state, wait_site "
    "ORDER BY count() DESC LIMIT 5",
)

PHASES = ("open", "cold", "sql", "compact", "scrub")


def generate(path: Path, psets: List[bytes], sprofs: List[bytes],
             picker: random.Random) -> int:
    """Fill a warehouse at *path*; returns the segments committed."""
    from repro.core.profileset import ProfileSet
    from repro.sampling.stateprofile import StateProfile
    from repro.warehouse import Warehouse
    decoded = [ProfileSet.from_bytes(body) for body in psets]
    states = [StateProfile.from_bytes(body) for body in sprofs]
    wh = Warehouse(path)
    segments = 0
    for source in SOURCES:
        for first in range(0, EPOCHS, BATCH):
            epochs = range(first, min(first + BATCH, EPOCHS))
            wh.ingest_many(source, [(picker.choice(decoded), epoch)
                                    for epoch in epochs])
            segments += len(epochs)
            for epoch in epochs:
                if epoch % SAMPLE_EVERY == 0:
                    wh.ingest_state(source, picker.choice(states),
                                    epoch=epoch)
                    segments += 1
    wh.save_baseline("base", ProfileSet.merged(decoded[:3]))
    return segments


class Pass:
    """Timings (reference seconds) and outputs of one pass over a copy."""

    def __init__(self, clock: RefClock):
        self.clock = clock
        self.seconds: Dict[str, float] = {}
        self.warm_ms: List[float] = []
        self.compaction_input_bytes = 0
        #: sha256 over the cold full-history query of every source.
        self.digest = ""


def _timed(result: Pass, phase: str, fn):
    value, result.seconds[phase] = result.clock.time(fn)
    return value


def _warm_queries(wh, timer) -> List[Tuple[str, object, float]]:
    """``(source, answer, host seconds)`` of each warm query."""
    done = []
    for i in range(WARM_QUERIES):
        source = SOURCES[i % len(SOURCES)]
        started = timer()
        answer = wh.query(source)
        done.append((source, answer, timer() - started))
    return done


def run_pass(path: Path, checks: Checks, encode: Callable,
             clock: RefClock) -> Pass:
    """One pass; *encode* is the untraced codec the checks compare with."""
    from repro.warehouse import Warehouse
    from repro.warehouse.sql import execute_sql
    result = Pass(clock)
    wh = _timed(result, "open", lambda: Warehouse(path))
    checks.op(len(wh.segments()) == EPOCHS * len(SOURCES),
              "reopened warehouse lost segments")
    answers = _timed(result, "cold",
                     lambda: {src: wh.query(src) for src in SOURCES})
    cold = {src: encode(pset) for src, pset in answers.items()}
    result.digest = hashlib.sha256(
        b"".join(cold[src] for src in SOURCES)).hexdigest()
    # Warm queries are served from memory and last ~10 ms, shorter than
    # the user/kernel split of CPU time resolves: they take all of it.
    warm, _ = clock.time(_warm_queries, wh, time.process_time)
    for source, answer, host_s in warm:
        result.warm_ms.append(host_s * clock.factor * 1e3)
        checks.op(encode(answer) == cold[source],
                  f"warm query of {source} differs from the cold one")
    tables = _timed(result, "sql",
                    lambda: [execute_sql(wh, stmt) for stmt in SQL])
    for stmt, table in zip(SQL, tables):
        checks.op(bool(table.rows), f"no rows from {stmt!r}")
    before = {m.seg_id: m.nbytes for m in wh.segments()}
    created = _timed(result, "compact", wh.compact)
    after = {m.seg_id for m in wh.segments()}
    result.compaction_input_bytes = sum(
        nbytes for seg_id, nbytes in before.items() if seg_id not in after)
    checks.op(bool(created), "compaction merged nothing")
    for source in SOURCES:
        checks.op(encode(wh.query(source)) == cold[source],
                  f"{source}: query bytes changed across compaction")
    report = _timed(result, "scrub", wh.scrub)
    checks.op(report.clean and report.scanned > 0,
              f"scrub not clean: {report.issues[:3]}")
    return result


def run_copy(generated: Path, root: Path, index: int, checks: Checks,
             encode: Callable, clock: RefClock) -> Pass:
    """One pass over a fresh copy of the generated warehouse."""
    copy = root / f"pass{index}"
    shutil.copytree(generated, copy)
    os.sync()  # the copy's writeback must not land on the pass
    try:
        return run_pass(copy, checks, encode, clock)
    finally:
        shutil.rmtree(copy)


def run_phase(generated: Path, root: Path, seconds: float, checks: Checks,
              encode: Callable, clock: RefClock) -> List[Pass]:
    """Passes until the window closes (at least one)."""
    deadline = Deadline(seconds)
    passes: List[Pass] = []
    while not passes or not deadline.passed():
        passes.append(run_copy(generated, root, len(passes), checks,
                               encode, clock))
    return passes


def setup(root: Path, seed: int, clock: RefClock
          ) -> Tuple[Path, int, float]:
    """Generate the warehouse several times.

    Returns the last generated directory, its segment count, and the
    median generation time in reference seconds.
    """
    psets, sprofs = capture_pool(seed)
    generate_s = []
    for attempt in range(SETUP_REPEATS):
        generated = root / f"generated{attempt}"
        segments, elapsed = clock.time(generate, generated, psets, sprofs,
                                       rng(seed, "warehouse"))
        generate_s.append(elapsed)
        if attempt:
            shutil.rmtree(root / f"generated{attempt - 1}")
        os.sync()
    return generated, segments, median(generate_s)


def end_to_end(passes: List[Pass], segments: int, setup_s: float
               ) -> Dict[str, Dict[str, object]]:
    warm = [p.warm_ms for p in passes]
    return {
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        "ops_per_s": metric(
            segments / sum(phase_medians(passes).values()), "1/s"),
        "latency_ms": metric(typical(warm, 50), "ms"),
    }


def phase_medians(passes: List[Pass]) -> Dict[str, float]:
    return {phase: median([p.seconds[phase] for p in passes])
            for phase in PHASES}


def run(workload: str, seed: int, seconds: float, trace: bool,
        checks: Checks):
    from repro.core.profileset import ProfileSet
    # Taken before any wrapper is installed, so the checks' encoding is
    # never charged to core.profileset.encode_s.
    encode = ProfileSet.to_bytes
    root = work_dir(workload)
    # User CPU time: generation and compaction are mostly file creation,
    # renames and fsyncs, whose wall time and kernel CPU time on a shared
    # virtual disk swing by 2-3x from run to run, far more than the
    # program's own work does.  The per-layer core.durable counters keep
    # the file-system work in view.
    clock = RefClock(user_cpu_s)
    try:
        generated, segments, setup_s = setup(root, seed, clock)
        if not trace:
            passes = run_phase(generated, root, seconds, checks, encode,
                               clock)
            return end_to_end(passes, segments, setup_s), notes(
                passes, segments, setup_s, clock)
        import tracer
        from layers import per_layer_metrics
        plain = run_phase(generated, root, seconds / 2, checks, encode,
                          clock)
        active = tracer.Tracer().install()
        try:
            traced = [run_copy(generated, root, index, checks, encode, clock)
                      for index in range(TRACED_PASSES)]
        finally:
            active.uninstall()
        for done in traced:
            checks.op(done.digest == plain[0].digest,
                      "traced query bytes differ from untraced ones")
        overhead = (sum(phase_medians(traced).values())
                    / sum(phase_medians(plain).values()) - 1.0) * 100.0
        phases = phase_medians(plain)
        extras = {
            "bench.tracing_overhead_pct": overhead,
            "error_ratio": checks.ratio(),
            "wh_open_s": phases["open"],
            "query_cold_s": phases["cold"],
            "sql_s": phases["sql"],
            "compact_s": phases["compact"],
            "scrub_s": phases["scrub"],
        }
        base = sum(p.compaction_input_bytes for p in traced)
        return (per_layer_metrics(active.snapshot(), extras,
                                  write_amp_base=base),
                notes(plain, segments, setup_s, clock))
    finally:
        remove_work_dir(root)


def notes(passes: List[Pass], segments: int, generate_s: float,
          clock: RefClock) -> List[str]:
    phases = phase_medians(passes)
    warm = [ms for p in passes for ms in p.warm_ms]
    return [f"warehouse: {segments} segments generated in "
            f"{generate_s:.2f} s; {len(passes)} "
            f"passes, {len(warm)} warm queries; host speed "
            f"{clock.speed():.3f}",
            "warehouse phase medians (s): " + ", ".join(
                f"{phase} {value:.4f}" for phase, value in phases.items())]
