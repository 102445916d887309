"""The crash-consistency matrix: every durable site, every crash image.

Every durable writer funnels through :mod:`repro.core.durable`, so one
:class:`~repro.core.crashfs.CrashFS` recorder observes the exact op
stream of a whole scenario — warehouse ingest/compact/gc, spool
append/drain, relay accept/forward.  The drivers here then *enumerate*:
for every prefix of that op stream and every page-cache outcome mode
(``flush``, ``strict``, ``rename-no-data``, ``data-no-rename``,
``torn``), materialize the crash image, reopen it with the real
recovery code, and assert the recovery invariant:

* nothing acked before the crash is lost;
* the index/ledger equals a pure replay of the durable journal;
* queries are byte-identical to a legal pre-crash state (anything at
  or after the last ack — un-acked data *may* survive), or the
  recovery path fails loudly, never silently wrong;
* recovering twice equals recovering once.

Violations are collected, not asserted inline, so the regression test
at the bottom can re-introduce the historical fsync-before-rename gap
and prove the matrix actually catches it.

``OSPROF_FAULT_SEED`` varies the torn-write positions, same as the
deterministic fault plane.
"""

import itertools
import os

import pytest

from repro.core import durable
from repro.core.crashfs import MODES, CrashFS
from repro.core.profileset import ProfileSet
from repro.sampling import StateProfile
from repro.service.relay import RelayService
from repro.service.spool import Spool
from repro.warehouse import CompactionPolicy, Warehouse, WarehouseIndex

SEED = int(os.environ.get("OSPROF_FAULT_SEED", "2006"))

#: Tiny tier geometry: 8 ingests exercise two compaction tiers *and* a
#: top-tier retention eviction, keeping the op log (hence the crash
#: image count) small enough to enumerate exhaustively.
TINY = CompactionPolicy(fanout=2, keep=(1, 1, 1))

EPOCHS = 8


def pset(tag):
    return ProfileSet.from_operation_latencies(
        {"read": [100.0 + tag] * 4, "write": [40.0 + tag] * 2})


def enumerate_images(fs, end, scratch, check):
    """Run *check* on every (mode, crash point) image; collect failures."""
    violations = []
    for mode in MODES:
        for point in range(end + 1):
            img = fs.materialize(scratch, point, mode, seed=SEED)
            for problem in check(img, point, mode):
                violations.append(f"[{mode} @ op {point}] {problem}")
    return violations


# -- warehouse: ingest, compact, gc ------------------------------------------

def drive_warehouse(fs, live):
    """Record a full warehouse life cycle; return the acked states.

    Each entry is ``(op mark, query bytes)``: at crash point ``p`` the
    last state with ``mark <= p`` had been acked to the caller, and
    every later state is legal too (un-acked data may survive).
    """
    with durable.recording(fs):
        wh = Warehouse(live, policy=TINY)
        states = [(fs.mark(), wh.query("web").to_bytes())]
        for epoch in range(EPOCHS):
            wh.ingest("web", pset(epoch))
            states.append((fs.mark(), wh.query("web").to_bytes()))
        created = wh.compact()
        assert created, "scenario must exercise compaction"
        states.append((fs.mark(), wh.query("web").to_bytes()))
        evicted = wh.gc()
        assert evicted, "scenario must exercise a retention eviction"
        states.append((fs.mark(), wh.query("web").to_bytes()))
    return states


def check_warehouse(img, point, mode, states):
    violations = []
    acked = max((i for i, (mark, _) in enumerate(states)
                 if mark <= point), default=0)
    legal = {snapshot for _, snapshot in states[acked:]}
    try:
        wh = Warehouse(img, policy=TINY)
        got = wh.query("web").to_bytes()
        if got not in legal:
            violations.append(
                f"recovered query matches no state at/after ack "
                f"#{acked} (acked data lost or phantom bytes)")
        replayed = WarehouseIndex()
        for record in wh.log.replay():
            replayed.apply(record)
        if replayed.live_files() != wh.index.live_files():
            violations.append("recovered index != pure log replay")
        again = Warehouse(img, policy=TINY)
        if again.query("web").to_bytes() != got:
            violations.append("recovering twice != recovering once")
        # Housekeeping on a crash image must not raise and must keep
        # the warehouse serving (gc may legally evict by retention).
        again.gc()
        again.query("web")
    except Exception as exc:
        violations.append(f"recovery raised {exc!r}")
    return violations


class TestWarehouseMatrix:
    def test_every_crash_image_recovers(self, tmp_path):
        fs = CrashFS(tmp_path / "live")
        states = drive_warehouse(fs, tmp_path / "live")
        violations = enumerate_images(
            fs, fs.mark(), tmp_path / "img",
            lambda img, p, m: check_warehouse(img, p, m, states))
        assert violations == []


# -- warehouse: one mixed latency + samples batch ----------------------------

def sprof(tag):
    out = StateProfile(interval=500.0)
    out.intervals = 2
    out.add("blocked", "filesystem", "read", "io:read", 3 + tag)
    out.add("running", "user", "-", "-", 1 + tag)
    return out


#: Two ``ingest_many`` batches of closed service segments: each epoch's
#: latency profile, then its wait-state samples, as the service flushes
#: them.
MIXED = [[(pset(0), 0), (sprof(0), 0), (pset(1), 1), (sprof(1), 1)],
         [(pset(2), 2), (sprof(2), 2)]]


def drive_mixed(fs, live):
    """Commit the :data:`MIXED` batches; return the op mark of each ack."""
    with durable.recording(fs):
        wh = Warehouse(live, policy=TINY)
        acks = []
        for batch in MIXED:
            wh.ingest_many("web", batch)
            acks.append(fs.mark())
    return acks


def check_mixed(img, point, mode, acks):
    violations = []
    items = [item for batch in MIXED for item in batch]
    acked = sum(len(batch) for batch, mark in zip(MIXED, acks)
                if mark <= point)
    try:
        wh = Warehouse(img, policy=TINY)
        committed = [(meta.kind, meta.epoch) for meta in sorted(
            wh.segments("web", kind=None), key=lambda m: m.seg_id)]
        kinds = [("samples" if isinstance(profile, StateProfile)
                  else "profile", epoch) for profile, epoch in items]
        if committed != kinds[:len(committed)]:
            violations.append(f"committed {committed} is not a prefix "
                              f"of the batches")
        if len(committed) < acked:
            violations.append(f"{acked - len(committed)} acked "
                              f"segment(s) lost")
        prefix = [profile for profile, _ in items[:len(committed)]]
        want = ProfileSet.merged(
            p for p in prefix if isinstance(p, ProfileSet)).to_bytes()
        want_states = StateProfile.merged(
            p for p in prefix if isinstance(p, StateProfile)).to_bytes()
        if wh.query("web").to_bytes() != want:
            violations.append("latency query != merge of the prefix")
        if wh.query_states("web").to_bytes() != want_states:
            violations.append("state query != merge of the prefix")
        again = Warehouse(img, policy=TINY)
        if again.query_states("web").to_bytes() != want_states:
            violations.append("recovering twice != recovering once")
    except Exception as exc:
        violations.append(f"recovery raised {exc!r}")
    return violations


class TestMixedBatchMatrix:
    def test_every_crash_image_holds_a_committed_prefix(self, tmp_path):
        fs = CrashFS(tmp_path / "live")
        acks = drive_mixed(fs, tmp_path / "live")
        violations = enumerate_images(
            fs, fs.mark(), tmp_path / "img",
            lambda img, p, m: check_mixed(img, p, m, acks))
        assert violations == []


# -- spool: append, drain ----------------------------------------------------

def drive_spool(fs, live):
    with durable.recording(fs):
        spool = Spool(live, client_id="c9")
        payloads = {}
        for i in range(3):
            blob = pset(i).to_bytes()
            seq = spool.append(blob)
            payloads[seq] = blob
            fs.note(("appended", seq))
        spool.drain(
            lambda seq, payload: fs.note(("delivered", seq, payload)))
    return payloads


def check_spool(img, point, mode, fs, payloads):
    violations = []
    notes = fs.notes_through(point)
    acked = {tag[1] for tag in notes if tag[0] == "appended"}
    delivered = {tag[1]: tag[2] for tag in notes if tag[0] == "delivered"}
    for seq, blob in delivered.items():
        if blob != payloads[seq]:
            violations.append(f"delivered seq {seq} bytes differ")
    try:
        spool = Spool(img)
        pending = set(spool.pending())
        if pending != set(Spool(img).pending()):
            violations.append("reopening twice != reopening once")
        for seq in sorted(acked):
            if seq in delivered:
                continue  # at-least-once: delivered entries may linger
            if seq not in pending:
                violations.append(f"acked seq {seq} lost")
            elif spool.payload(seq) != payloads[seq]:
                violations.append(f"acked seq {seq} bytes differ")
        fresh = spool.append(pset(99).to_bytes())
        if fresh in acked:
            violations.append(f"sequence number {fresh} reused")
    except Exception as exc:
        violations.append(f"recovery raised {exc!r}")
    return violations


class TestSpoolMatrix:
    def test_every_crash_image_recovers(self, tmp_path):
        fs = CrashFS(tmp_path / "live")
        payloads = drive_spool(fs, tmp_path / "live")
        violations = enumerate_images(
            fs, fs.mark(), tmp_path / "img",
            lambda img, p, m: check_spool(img, p, m, fs, payloads))
        assert violations == []


# -- relay: accept, spool, write-ahead forward -------------------------------

class StubUpstream:
    """An upstream with the real ledger semantics: dedup by sequence,
    and a replayed sequence must carry byte-identical payload."""

    def __init__(self, fs=None, seen=None):
        self.fs = fs
        self.seen = dict(seen or {})
        self.violations = []

    def push_with_seq(self, seq, payload):
        if self.fs is not None:
            self.fs.note(("up", seq, payload))
        prior = self.seen.setdefault(seq, payload)
        if prior != payload:
            self.violations.append(
                f"up_seq {seq} replayed with different bytes "
                f"(exactly-once broken)")
        return "ok"

    def close(self):
        pass


def drive_relay(fs, live):
    with durable.recording(fs):
        relay = RelayService(live, upstream=("127.0.0.1", 1), batch=2)
        relay._upstream_client = StubUpstream(fs=fs)
        pushes = {}
        for i in (1, 2, 3):
            blob = pset(i).to_bytes()
            relay.accept_sequenced("c1", i, blob)
            pushes[i] = blob
            fs.note(("acked", i))
        relay.forward()  # batch=2 -> two upstream pushes, two commits
    return pushes


def check_relay(img, point, mode, fs, pushes):
    violations = []
    upstream_seen = {}
    acked = set()
    for tag in fs.notes_through(point):
        if tag[0] == "up":
            _, seq, payload = tag
            prior = upstream_seen.setdefault(seq, payload)
            if prior != payload:
                violations.append(f"up_seq {seq} bytes diverged pre-crash")
        elif tag[0] == "acked":
            acked.add(tag[1])
    try:
        # The real restart path: purge below the watermark, rebuild the
        # ledger from spool + state, replay the in-flight marker.
        relay = RelayService(img, upstream=("127.0.0.1", 1), batch=2)
        stub = StubUpstream(seen=upstream_seen)
        relay._upstream_client = stub
        relay.forward()
        violations.extend(stub.violations)
        if relay.pending_entries():
            violations.append("forward-to-completion left spooled entries")
        final = [stub.seen[seq] for seq in sorted(stub.seen)]
        got = ProfileSet.merged(
            [ProfileSet.from_bytes(blob) for blob in final]).to_bytes()
        # Legal outcome: a flat merge of every acked push plus any
        # subset of the un-acked ones (their clients never got an ack
        # and will retry; the ledger dedups the retry).
        unacked = [i for i in pushes if i not in acked]
        legal = set()
        for extra in itertools.chain.from_iterable(
                itertools.combinations(unacked, n)
                for n in range(len(unacked) + 1)):
            ids = sorted(acked | set(extra))
            legal.add(ProfileSet.merged(
                [ProfileSet.from_bytes(pushes[i]) for i in ids]).to_bytes())
        if got not in legal:
            violations.append(
                "upstream merge is not acked-pushes + a subset of "
                "un-acked ones (lost or double-merged data)")
    except Exception as exc:
        violations.append(f"recovery raised {exc!r}")
    return violations


class TestRelayMatrix:
    def test_every_crash_image_recovers(self, tmp_path):
        fs = CrashFS(tmp_path / "live")
        pushes = drive_relay(fs, tmp_path / "live")
        violations = enumerate_images(
            fs, fs.mark(), tmp_path / "img",
            lambda img, p, m: check_relay(img, p, m, fs, pushes))
        assert violations == []


# -- the regression: the matrix must catch the historical fsync gap ----------

class TestMatrixCatchesTheBug:
    """Re-introduce the pre-fix bug (no fsync before rename, no parent
    dir fsync after) and assert the enumeration flags it.  If this test
    ever fails, the harness has gone blind — the crash matrix proves
    nothing anymore."""

    @pytest.fixture
    def unsynced_writes(self, monkeypatch):
        real = durable.write_atomic

        def buggy(path, data, *, fsync=True):
            real(path, data, fsync=False)

        monkeypatch.setattr(durable, "write_atomic", buggy)

    def test_warehouse_gap_is_flagged(self, tmp_path, unsynced_writes):
        fs = CrashFS(tmp_path / "live")
        with durable.recording(fs):
            wh = Warehouse(tmp_path / "live", policy=TINY)
            states = [(fs.mark(), wh.query("web").to_bytes())]
            for epoch in range(3):
                wh.ingest("web", pset(epoch))
                states.append((fs.mark(), wh.query("web").to_bytes()))
        violations = enumerate_images(
            fs, fs.mark(), tmp_path / "img",
            lambda img, p, m: check_warehouse(img, p, m, states))
        assert violations, (
            "the un-fsynced write_atomic went unnoticed: the crash "
            "matrix no longer catches the historical durability gap")
        # The classic symptom: a rename made durable while its payload
        # was not — a committed-looking segment with no bytes behind it.
        assert any("rename-no-data" in v or "strict" in v
                   for v in violations)

    def test_spool_gap_is_flagged(self, tmp_path, unsynced_writes):
        fs = CrashFS(tmp_path / "live")
        payloads = drive_spool(fs, tmp_path / "live")
        violations = enumerate_images(
            fs, fs.mark(), tmp_path / "img",
            lambda img, p, m: check_spool(img, p, m, fs, payloads))
        assert violations
