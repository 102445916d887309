"""Differential oracle: fixpoint compaction against the round loop.

``Warehouse.compact`` plans the whole tier cascade on metadata and
writes only the super-segments that survive it, each merged straight
from the stored segments it covers.  The loop it replaced committed
every planning round, merging tier-1 outputs again into tier 2; it is
kept here as the reference.  Exact histogram merges make any grouping
of the same leaves byte-identical, so both must leave the same live set
in every ``(source, tier, epoch, span, kind, payload bytes, resid)``
and the same query bytes.  Only segment ids, file names and the journal
differ.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import durable
from repro.core.crashfs import CrashFS
from repro.core.profile import Layer, Profile
from repro.core.profileset import ProfileSet
from repro.sampling import StateProfile
from repro.warehouse import CompactionPolicy, Warehouse
from repro.warehouse.tiers import plan_compactions

EPOCHS = 80


def reference_compact(wh):
    """The round-by-round compaction ``compact()`` used to run."""
    created = []
    for src in wh.index.sources():
        while groups := plan_compactions(wh.index, src, wh.policy):
            created.extend(wh._compact_round(groups))
    return created


def pset(source, epoch):
    # Latencies that are not exactly representable after summing, so
    # compacted segments carry residuals; "write" only shows up in some
    # epochs, so groups merge unlike op sets.
    out = ProfileSet()
    ops = {"read": [100.0 + 0.37 * epoch, 3.3 * (epoch + 1) + len(source)]}
    if epoch % 3 == 0:
        ops["write"] = [1e6 / (epoch + 7)]
    for op, latencies in ops.items():
        prof = Profile(op, layer=Layer.FILESYSTEM)
        for latency in latencies:
            prof.add(latency)
        out.insert(prof)
    return out


def sprof(epoch):
    out = StateProfile(name="state-samples", interval=1000.0)
    out.intervals = 2
    out.add("blocked", "filesystem", "read", "io:read", 1 + epoch)
    return out


def ingest(wh, history, phase):
    """Commit the part of *history* that belongs to *phase* (0 or 1)."""
    for source, epochs, samples in history["sources"]:
        wanted = [e for e in sorted(epochs)
                  if (e >= history["split"]) == phase]
        if wanted:
            wh.ingest_many(source, [(pset(source, e), e) for e in wanted])
        for epoch in sorted(samples):
            if (epoch >= history["split"]) == phase:
                wh.ingest_state(source, sprof(epoch), epoch=epoch)


def live_set(wh):
    return sorted((m.source, m.tier, m.epoch, m.span, m.kind,
                   (wh.root / m.file).read_bytes(), m.resid)
                  for m in wh.segments(kind=None))


def queries(wh):
    return {src: wh.query(src).to_bytes() for src in wh.sources()}


source_history = st.tuples(
    # A run of epochs 0..n-1 with a few gaps: dense enough to cascade.
    st.integers(0, EPOCHS),
    st.sets(st.integers(0, EPOCHS - 1), max_size=12),
    # Epochs past EPOCHS are newer than every latency segment: the
    # compaction horizon then comes from a samples segment.
    st.sets(st.integers(0, EPOCHS + 40), max_size=3))

histories = st.fixed_dictionaries({
    "fanout": st.integers(2, 4),
    "keep": st.lists(st.integers(1, 3), min_size=1, max_size=3),
    "sources": st.lists(source_history, min_size=1, max_size=3).map(
        lambda rows: [(f"src{i}", set(range(n)) - gaps, samples)
                      for i, (n, gaps, samples) in enumerate(rows)]),
    # Epochs below the split are ingested and compacted first, so the
    # second compaction sees leaves of mixed tiers.
    "split": st.integers(0, EPOCHS),
})


class TestFixpointMatchesRoundLoop:
    @given(histories)
    @settings(max_examples=30, deadline=None)
    def test_same_live_set_and_query_bytes(self, history):
        policy = CompactionPolicy(fanout=history["fanout"],
                                  keep=tuple(history["keep"]))
        with tempfile.TemporaryDirectory() as tmp:
            ref = Warehouse(Path(tmp) / "ref", policy=policy)
            new = Warehouse(Path(tmp) / "new", policy=policy)
            for phase in (0, 1):
                ingest(ref, history, phase)
                ingest(new, history, phase)
                reference_compact(ref)
                fs = CrashFS(new.root)
                with durable.recording(fs):
                    created = new.compact()
                # Only surviving super-segments are written, and the
                # call commits them with one journal append.
                written = [op for op in fs.ops if op.kind == "replace"
                           and op.dest.startswith("segments/")]
                appends = [op for op in fs.ops if op.kind == "append"
                           and op.path == "wal.log"]
                assert len(written) == len(created)
                assert len(appends) == (1 if created else 0)
                assert live_set(new) == live_set(ref)
                assert queries(new) == queries(ref)
            assert new.compact() == []
            assert reference_compact(ref) == []


class TestOneCommit:
    def test_long_idle_cascade_writes_only_survivors(self, tmp_path):
        policy = CompactionPolicy(fanout=2, keep=(1, 1, 1, 1))
        wh = Warehouse(tmp_path, policy=policy)
        wh.ingest_many("web", [(pset("web", e), e) for e in range(32)])
        fs = CrashFS(tmp_path)
        with durable.recording(fs):
            created = wh.compact()
        written = [op for op in fs.ops if op.kind == "replace"
                   and op.dest.startswith("segments/")]
        appends = [op for op in fs.ops
                   if op.kind == "append" and op.path == "wal.log"]
        assert len(written) == len(created) == wh.index.compactions_total
        assert [op.data.count(b"\n") for op in appends] == [len(created)]
        # Nothing written is superseded by the same call.
        live = {m.seg_id for m in wh.segments()}
        assert {m.seg_id for m in created} <= live
