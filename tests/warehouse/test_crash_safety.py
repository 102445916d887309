"""Crash-safety: kill the warehouse mid-ingest / mid-compaction, reopen.

The write-then-commit discipline under test: a segment file always
lands (atomic rename) *before* its log record.  Killing the process in
either half of that window and replaying the log must never lose a
committed segment and never double-count one — the worst outcome is an
orphan file, which ``gc`` sweeps.

Faults are armed through the ``warehouse.ingest`` and
``warehouse.compact`` sites of
:mod:`repro.core.faults` (the same seed-driven plan the shard and
service suites use); the seed comes from ``OSPROF_FAULT_SEED`` so the
CI fault sweep covers this suite too.
"""

import hashlib
import os

import pytest

from repro.core import durable
from repro.core.crashfs import CrashFS
from repro.core.faults import FaultPlan, FaultPoint, InjectedFault
from repro.core.profileset import ProfileSet
from repro.sampling import StateProfile
from repro.warehouse import CompactionPolicy, Warehouse
from repro.warehouse.tiers import plan_fixpoint

SEED = int(os.environ.get("OSPROF_FAULT_SEED", "2006"))

SMALL = CompactionPolicy(fanout=2, keep=(2, 2, 2))


def plan(*points):
    return FaultPlan(points, seed=SEED)


def pset(epoch):
    return ProfileSet.from_operation_latencies(
        {"read": [100.0 + epoch] * 4})


def sprof(seed):
    out = StateProfile(name="state-samples", interval=1000.0)
    out.intervals = 4
    out.add("blocked", "filesystem", "read", "io:read", 5 + seed)
    out.add("running", "user", "-", "-", 2)
    return out


def tree(root):
    """``{relative path: sha256}`` of every file under *root*."""
    return {p.relative_to(root).as_posix():
            hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def fill(root, epochs, fault_plan=None, policy=SMALL):
    wh = Warehouse(root, policy=policy, fault_plan=fault_plan)
    for epoch in range(epochs):
        wh.ingest("web", pset(epoch), epoch=epoch)
    return wh


class TestCrashMidIngest:
    """Each commit fires the site twice: after-file, then after-log."""

    def test_crash_after_file_before_log(self, tmp_path):
        # The 4th ingest dies between its file landing and its commit.
        armed = fill(tmp_path, 3, plan(
            FaultPoint("warehouse.ingest", "crash", key="after-file",
                       attempts=(6,))))
        with pytest.raises(InjectedFault):
            armed.ingest("web", pset(3), epoch=3)

        reopened = Warehouse(tmp_path, policy=SMALL)
        # The uncommitted segment does not exist; the 3 committed ones do.
        assert reopened.segments_total == 3
        expected = ProfileSet.merged([pset(e) for e in range(3)])
        assert reopened.query("web").to_bytes() == expected.to_bytes()
        # Its file is an orphan until gc sweeps it.
        files = list((tmp_path / "segments").rglob("*.ospb"))
        assert len(files) == 4
        reopened.gc()
        assert reopened.orphans_removed == 1
        assert reopened.query("web").to_bytes() == expected.to_bytes()

    def test_crash_after_log_commit_is_durable(self, tmp_path):
        armed = fill(tmp_path, 3, plan(
            FaultPoint("warehouse.ingest", "crash", key="after-log",
                       attempts=(7,))))
        with pytest.raises(InjectedFault):
            armed.ingest("web", pset(3), epoch=3)

        # The record landed, so the segment is committed: visible once,
        # exactly once, after replay.
        reopened = Warehouse(tmp_path, policy=SMALL)
        assert reopened.segments_total == 4
        expected = ProfileSet.merged([pset(e) for e in range(4)])
        assert reopened.query("web").to_bytes() == expected.to_bytes()

    def test_retry_after_crash_does_not_double_count(self, tmp_path):
        armed = fill(tmp_path, 3, plan(
            FaultPoint("warehouse.ingest", "crash", key="after-file",
                       attempts=(6,))))
        with pytest.raises(InjectedFault):
            armed.ingest("web", pset(3), epoch=3)
        # The caller retries against a reopened warehouse (the service
        # does exactly this across a restart).
        reopened = Warehouse(tmp_path, policy=SMALL)
        reopened.ingest("web", pset(3), epoch=3)
        assert reopened.segments_total == 4
        expected = ProfileSet.merged([pset(e) for e in range(4)])
        assert reopened.query("web").to_bytes() == expected.to_bytes()


class TestCrashMidStateIngest:
    """``ingest_state`` commits through ``ingest_many``, so it fires the
    ``warehouse.ingest`` site: after-file, then after-log."""

    # query_states answers in the canonical merged form.
    pushed = StateProfile.merged([sprof(0)]).to_bytes()

    def test_crash_after_file_commits_no_samples_segment(self, tmp_path):
        # The 2nd state ingest dies between its file and its commit.
        armed = Warehouse(tmp_path, fault_plan=plan(
            FaultPoint("warehouse.ingest", "crash",
                       key="after-file", attempts=(2,))))
        armed.ingest_state("web", sprof(0), epoch=0)
        with pytest.raises(InjectedFault):
            armed.ingest_state("web", sprof(1), epoch=1)

        reopened = Warehouse(tmp_path)
        assert reopened.segments_total == 1
        assert reopened.query_states("web").to_bytes() == self.pushed
        assert len(list((tmp_path / "segments").rglob("*.ospb"))) == 2
        reopened.gc()
        assert reopened.orphans_removed == 1
        assert reopened.query_states("web").to_bytes() == self.pushed

    def test_crash_after_log_commit_is_durable(self, tmp_path):
        armed = Warehouse(tmp_path, fault_plan=plan(
            FaultPoint("warehouse.ingest", "crash",
                       key="after-log", attempts=(1,))))
        with pytest.raises(InjectedFault):
            armed.ingest_state("web", sprof(0), epoch=0)

        reopened = Warehouse(tmp_path)
        assert reopened.segments_total == 1
        assert reopened.query_states("web").to_bytes() == self.pushed


class TestCrashMidCompaction:
    def test_crash_after_file_keeps_inputs_live(self, tmp_path):
        expected = ProfileSet.merged([pset(e) for e in range(12)])
        armed = fill(tmp_path, 12, plan(
            FaultPoint("warehouse.compact", "crash", key="after-file",
                       attempts=(0,))))
        with pytest.raises(InjectedFault):
            armed.compact()

        reopened = Warehouse(tmp_path, policy=SMALL)
        # No commit happened: every raw segment is still live and the
        # half-written super-segment is an orphan.
        assert reopened.segments_total == 12
        assert reopened.compactions_total == 0
        assert reopened.query("web").to_bytes() == expected.to_bytes()
        reopened.gc()
        assert reopened.orphans_removed == 1
        assert reopened.query("web").to_bytes() == expected.to_bytes()

    def test_crash_after_log_supersedes_inputs_exactly_once(self, tmp_path):
        clean = fill(tmp_path / "clean", 12)
        clean.compact()
        clean.gc()

        expected = ProfileSet.merged([pset(e) for e in range(12)])
        crashy = tmp_path / "crashy"
        groups = plan_fixpoint(fill(crashy, 12).index, "web", SMALL)
        assert len(groups) == 3
        # compact() fires after-file once per group, then after-log
        # once: attempt len(groups) is its one after-log.
        armed = Warehouse(crashy, policy=SMALL, fault_plan=plan(
            FaultPoint("warehouse.compact", "crash", key="after-log",
                       attempts=(len(groups),))))
        with pytest.raises(InjectedFault):
            armed.compact()

        reopened = Warehouse(crashy, policy=SMALL)
        # The commit landed; every leaf is superseded exactly once (not
        # double-counted) even though no input file was unlinked.
        assert reopened.compactions_total == len(groups)
        inputs = [seg_id for record in reopened.log.replay()
                  for seg_id in record["inputs"]]
        assert sorted(inputs) == list(range(1, 11))
        assert sorted(inputs) == sorted(
            m.seg_id for group in groups for m in group.inputs)
        assert not set(inputs) & {m.seg_id for m in reopened.segments()}
        assert reopened.query("web").to_bytes() == expected.to_bytes()

        # The job is done: compacting again plans nothing, and gc
        # sweeps the never-unlinked input files (declared dead by the
        # replayed log) into the clean run's tree, journal included.
        assert reopened.compact() == []
        assert reopened.query("web").to_bytes() == expected.to_bytes()
        reopened.gc()
        on_disk = {p.relative_to(crashy).as_posix()
                   for p in (crashy / "segments").rglob("*.ospb")}
        assert on_disk == reopened.index.live_files()
        assert tree(crashy) == tree(tmp_path / "clean")

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_crash_inside_a_round_commits_nothing(self, tmp_path, k):
        clean = fill(tmp_path / "clean", 12)
        clean.compact()
        clean.gc()

        expected = ProfileSet.merged([pset(e) for e in range(12)])
        crashy = tmp_path / "crashy"
        armed = fill(crashy, 12, plan(
            FaultPoint("warehouse.compact", "crash", key="after-file",
                       attempts=(k,))))
        # k covers every after-file attempt of the one round.
        assert len(plan_fixpoint(armed.index, "web", SMALL)) == 3
        with pytest.raises(InjectedFault):
            armed.compact()

        reopened = Warehouse(crashy, policy=SMALL)
        # The round's records never landed: every input stays live and
        # the k + 1 files written so far are orphans.
        assert reopened.compactions_total == 0
        assert {m.seg_id for m in reopened.segments()} == set(range(1, 13))
        assert reopened.query("web").to_bytes() == expected.to_bytes()
        reopened.gc()
        assert reopened.orphans_removed == k + 1
        # A retry reproduces the clean run's tree, journal included.
        reopened.compact()
        reopened.gc()
        assert tree(crashy) == tree(tmp_path / "clean")

    def test_one_journal_append_per_round(self, tmp_path):
        wh = fill(tmp_path, 12)
        # The whole cascade is one round: tier-0 pairs 1..8 go straight
        # to tier 2, and only 9, 10 stop at tier 1.
        groups = plan_fixpoint(wh.index, "web", SMALL)
        assert [(g.tier, g.epoch, [m.seg_id for m in g.inputs])
                for g in groups] == [(1, 8, [9, 10]),
                                     (2, 0, [1, 2, 3, 4]),
                                     (2, 4, [5, 6, 7, 8])]
        committed = len(wh.log.replay())
        fs = CrashFS(tmp_path)
        with durable.recording(fs):
            created = wh.compact()
        appends = [op for op in fs.ops
                   if op.kind == "append" and op.path == "wal.log"]
        assert [op.data.count(b"\n") for op in appends] == [len(groups)]
        records = wh.log.replay()[committed:]
        assert [(r["id"], r["inputs"]) for r in records] \
            == [(13, [9, 10]), (14, [1, 2, 3, 4]), (15, [5, 6, 7, 8])]
        assert [m.seg_id for m in created] == [13, 14, 15]

    def test_crashed_compaction_retried_matches_clean_run(self, tmp_path):
        clean = fill(tmp_path / "clean", 12)
        clean.compact()
        reference = clean.query("web").to_bytes()

        armed = fill(tmp_path / "crashy", 12, plan(
            FaultPoint("warehouse.compact", "crash", key="after-file",
                       attempts=(2,))))
        with pytest.raises(InjectedFault):
            armed.compact()
        recovered = Warehouse(tmp_path / "crashy", policy=SMALL)
        recovered.compact()
        assert recovered.query("web").to_bytes() == reference


class TestTornLogTail:
    def test_torn_last_record_loses_only_the_uncommitted(self, tmp_path):
        wh = fill(tmp_path, 4)
        wal = tmp_path / "wal.log"
        data = wal.read_bytes()
        # Tear the last committed line in half, as a crash mid-write
        # (plus lost directory sync) would.
        wal.write_bytes(data[:len(data) - 20])

        reopened = Warehouse(tmp_path, policy=SMALL)
        assert reopened.segments_total == 3
        assert reopened.log.truncated_bytes > 0
        expected = ProfileSet.merged([pset(e) for e in range(3)])
        assert reopened.query("web").to_bytes() == expected.to_bytes()
        # The torn segment's file is now an orphan; sweep it.
        reopened.gc()
        assert reopened.orphans_removed == 1
