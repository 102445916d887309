"""The columnar warehouse engine vs the per-segment decode + merge path.

Acceptance bar for the columnar engine: multi-segment range queries
and the compaction merge phase must be at least 3x faster than the
legacy path — ``ProfileSet.merged`` over per-segment
``Warehouse.load_segment`` decodes, which stays the byte-identity
oracle.  The byte-identity half is always asserted; the throughput
ratios are recorded in extra_info and only enforced outside CI (shared
runners time too noisily to gate on).

Full ``compact()`` wall time is recorded too, but not gated: it is
dominated by the durable write path (encode + atomic rename per
output, then one journal append per ``compact()``), which the merge
engine does not speed up.
"""

import os
import time

from repro.core.profileset import ProfileSet
from repro.warehouse import (CompactionPolicy, Warehouse,
                             merged_profile_set)
from repro.warehouse.tiers import plan_compactions

SEGMENTS = 120
QUERY_ROUNDS = 5
POLICY = CompactionPolicy(fanout=4, keep=(4, 4, 4))


def synthetic_segment(seed: int, operations: int = 10) -> ProfileSet:
    """One collector-shaped segment: ~10 ops, 40 busy buckets each."""
    pset = ProfileSet()
    for i in range(operations):
        hist = pset.profile(f"op{i:02d}").histogram
        for b in range(5, 45):
            hist.add_to_bucket(b, (b * 37 + i * 11 + seed * 7) % 97 + 1)
    return pset


def build_warehouse(root):
    wh = Warehouse(root, policy=POLICY)
    wh.ingest_many("bench",
                   [(synthetic_segment(e), e) for e in range(SEGMENTS)])
    return wh


def best_of(rounds, fn):
    elapsed = float("inf")
    result = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = fn()
        elapsed = min(elapsed, time.perf_counter() - t0)
    return elapsed, result


def test_perf_warehouse_query_columnar_vs_legacy(benchmark, artifacts,
                                                 tmp_path):
    """Full-history query over 120 segments, both paths."""
    columnar = build_warehouse(tmp_path / "wh")
    metas = columnar.segments("bench")

    def legacy_query():
        return ProfileSet.merged([columnar.load_segment(m) for m in metas])

    columnar.query("bench")  # decode once; repeat queries hit the cache
    legacy_elapsed, legacy_result = best_of(
        3, lambda: [legacy_query() for _ in range(QUERY_ROUNDS)][-1])
    columnar_elapsed, columnar_result = best_of(
        3, lambda: [columnar.query("bench")
                    for _ in range(QUERY_ROUNDS)][-1])
    benchmark.pedantic(lambda: columnar.query("bench"),
                       rounds=3, iterations=1)

    assert columnar_result.to_bytes() == legacy_result.to_bytes()
    speedup = legacy_elapsed / columnar_elapsed
    benchmark.extra_info["segments"] = SEGMENTS
    benchmark.extra_info["query_rounds"] = QUERY_ROUNDS
    benchmark.extra_info["legacy_seconds"] = round(legacy_elapsed, 4)
    benchmark.extra_info["columnar_seconds"] = round(columnar_elapsed, 4)
    benchmark.extra_info["speedup"] = round(speedup, 3)
    benchmark.extra_info["cache_hits"] = columnar.cache_hits_total
    artifacts.add(
        f"warehouse query, {SEGMENTS} segments x {QUERY_ROUNDS} rounds\n"
        f"  legacy:   {legacy_elapsed:.4f}s\n"
        f"  columnar: {columnar_elapsed:.4f}s  ({speedup:.1f}x)\n"
        f"  byte-identical: yes")
    if not os.environ.get("CI"):
        assert speedup >= 3.0, (
            f"columnar query only {speedup:.2f}x faster "
            f"({columnar_elapsed:.4f}s vs {legacy_elapsed:.4f}s)")


def test_perf_warehouse_compaction_columnar_vs_legacy(benchmark,
                                                      artifacts,
                                                      tmp_path):
    """The compaction merge phase over the planned tier-0 groups."""
    wh = build_warehouse(tmp_path / "wh")
    groups = plan_compactions(wh.index, "bench", wh.policy)
    assert sum(len(g.inputs) for g in groups) >= 100

    def legacy_merge():
        return [ProfileSet.merged([wh.load_segment(m) for m in g.inputs])
                for g in groups]

    def columnar_merge():
        return [merged_profile_set((wh.load_columns(m), dict(m.resid))
                                   for m in g.inputs)
                for g in groups]

    columnar_merge()  # warm the decoded-columns cache
    legacy_elapsed, legacy_result = best_of(3, legacy_merge)
    columnar_elapsed, columnar_result = best_of(3, columnar_merge)
    benchmark.pedantic(columnar_merge, rounds=3, iterations=1)

    assert all(a.to_bytes() == b.to_bytes()
               for a, b in zip(legacy_result, columnar_result))
    speedup = legacy_elapsed / columnar_elapsed

    # The ungated end-to-end number: compact() to a fixpoint (write
    # path included).
    full_wh = build_warehouse(tmp_path / "full")
    t0 = time.perf_counter()
    while full_wh.compact():
        pass
    full_compact = time.perf_counter() - t0

    benchmark.extra_info["groups"] = len(groups)
    benchmark.extra_info["legacy_seconds"] = round(legacy_elapsed, 4)
    benchmark.extra_info["columnar_seconds"] = round(columnar_elapsed, 4)
    benchmark.extra_info["speedup"] = round(speedup, 3)
    benchmark.extra_info["full_compact_columnar_seconds"] = round(
        full_compact, 4)
    artifacts.add(
        f"compaction merge phase, {len(groups)} groups "
        f"({SEGMENTS} input segments)\n"
        f"  legacy:   {legacy_elapsed:.4f}s\n"
        f"  columnar: {columnar_elapsed:.4f}s  ({speedup:.1f}x)\n"
        f"  full compact() incl. write path: "
        f"columnar {full_compact:.4f}s\n"
        f"  byte-identical: yes")
    if not os.environ.get("CI"):
        assert speedup >= 3.0, (
            f"columnar compaction merge only {speedup:.2f}x faster "
            f"({columnar_elapsed:.4f}s vs {legacy_elapsed:.4f}s)")
