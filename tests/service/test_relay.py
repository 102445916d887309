"""The relay's exactly-once story, attacked joint by joint.

The aggregation tree only works if a leaf's forwarding is idempotent
across every crash window: before the ack, after the ack but before the
batch commit, after the commit but before the spool cleanup.  These
tests drive :class:`~repro.service.relay.RelayService` directly through
each window — the durable state file, the spool scan, the write-ahead
in-flight marker — and measure the one thing that matters at the root:
the merged profile is byte-identical to merging every client's raw
segments exactly once.
"""

import pytest

from repro.core.buckets import BucketSpec
from repro.core.profileset import ProfileSet
from repro.service.aio_server import AsyncProfileServer
from repro.service.client import ServiceClient, ServiceUnavailableError
from repro.service.protocol import (FrameType, encode_json,
                                    encode_state_push, recv_frame,
                                    send_frame)
from repro.service.relay import RelayServer, RelayService, RelayState
from repro.service.server import ProfileService, ServiceConfig


def pset(seed=0, ops=12):
    return ProfileSet.from_operation_latencies(
        {"read": [150 + seed * 17 + i * 3 for i in range(ops)],
         "unlink": [9000 + seed * 7 + i * 5 for i in range(ops // 3)]})


@pytest.fixture()
def root():
    service = ProfileService(config=ServiceConfig(segment_seconds=3600.0))
    server = AsyncProfileServer(service)
    server.serve_in_thread()
    yield service, server
    server.server_close()


@pytest.fixture()
def make_relay():
    """Build relays on ``tmp_path / "leaf"``; each is closed at teardown,
    so no upstream connection outlives its test."""
    made = []

    def build(tmp_path, upstream, **kwargs):
        kwargs.setdefault("sleep", lambda s: None)
        kwargs.setdefault("retries", 1)
        relay = RelayService(tmp_path / "leaf", upstream=upstream, **kwargs)
        made.append(relay)
        return relay

    yield build
    for relay in made:
        relay.close()


class TestAcceptPath:
    """Spool-before-ack, dedup, and rejection accounting."""

    def test_accept_spools_and_acks(self, tmp_path, make_relay):
        relay = make_relay(tmp_path, ("127.0.0.1", 1))
        status, fresh = relay.accept_sequenced("c1", 1, pset(1).to_bytes())
        assert fresh and "relayed" in status
        assert relay.pending_entries() != []
        assert relay.accepted == 1

    def test_duplicate_sequence_not_respooled(self, tmp_path, make_relay):
        relay = make_relay(tmp_path, ("127.0.0.1", 1))
        relay.accept_sequenced("c1", 1, pset(1).to_bytes())
        before = relay.pending_entries()
        status, fresh = relay.accept_sequenced("c1", 1, pset(1).to_bytes())
        assert not fresh and "duplicate" in status
        assert relay.pending_entries() == before
        assert relay.duplicates == 1

    def test_corrupt_payload_raises_before_spooling(self, tmp_path,
                                                    make_relay):
        relay = make_relay(tmp_path, ("127.0.0.1", 1))
        with pytest.raises(ValueError):
            relay.accept_sequenced("c1", 1, b"garbage")
        assert relay.pending_entries() == []
        # The sequence was NOT recorded: the client may resend the
        # pristine copy under the same number.
        status, fresh = relay.accept_sequenced("c1", 1, pset(1).to_bytes())
        assert fresh

    def test_snapshot_merges_pending(self, tmp_path, make_relay):
        relay = make_relay(tmp_path, ("127.0.0.1", 1))
        sent = [pset(i) for i in range(3)]
        for i, ps in enumerate(sent):
            relay.accept_sequenced("c1", i + 1, ps.to_bytes())
        assert relay.snapshot().to_bytes() == \
            ProfileSet.merged(sent).to_bytes()


class TestForwarding:
    """Batch composition, canonical merge, and the happy path."""

    def test_forward_merges_batches_byte_identically(self, tmp_path, root,
                                                     make_relay):
        service, server = root
        relay = make_relay(tmp_path, server.address, batch=3)
        sent = []
        for c in range(2):
            for k in range(4):
                ps = pset(c * 50 + k)
                sent.append(ps)
                relay.accept_sequenced(f"c{c}", k + 1, ps.to_bytes())
        forwarded = relay.forward()
        assert forwarded == 8
        assert relay.pending_entries() == []
        assert relay.forwarded_batches == 3  # 3 + 3 + 2
        assert service.snapshot().to_bytes() == \
            ProfileSet.merged(sent).to_bytes()

    def test_plain_pushes_forwarded_too(self, tmp_path, root, make_relay):
        service, server = root
        relay = make_relay(tmp_path, server.address)
        sent = [pset(9), pset(10)]
        for ps in sent:
            relay.accept_payload(ps.to_bytes())
        relay.forward()
        assert service.snapshot().to_bytes() == \
            ProfileSet.merged(sent).to_bytes()

    def test_foreign_resolution_refused_so_the_batch_still_forwards(
            self, tmp_path, root, make_relay):
        # A push the root would refuse must not be acked: spooled, it
        # would poison every forwarding round after it.
        service, server = root
        relay = make_relay(tmp_path, server.address)
        first = pset(1)
        relay.accept_sequenced("c1", 1, first.to_bytes())
        coarse = ProfileSet(name="coarse", spec=BucketSpec(2))
        coarse.add("read", 100.0)
        with pytest.raises(ValueError, match="resolution 2 differs .* 1"):
            relay.accept_sequenced("c1", 2, coarse.to_bytes())
        assert relay.rejected == 1
        assert relay.accepted == 1
        try:
            assert relay.forward() == 1
        finally:
            relay.close()
        assert relay.forward_errors == 0
        assert relay.pending_entries() == []
        assert service.snapshot().to_bytes() == first.to_bytes()

    def test_unreachable_upstream_keeps_spool(self, tmp_path, make_relay):
        relay = make_relay(tmp_path, ("127.0.0.1", 1))  # nothing there
        relay.accept_sequenced("c1", 1, pset(1).to_bytes())
        with pytest.raises(ServiceUnavailableError):
            relay.forward()
        assert relay.forward_errors == 1
        assert len(relay.pending_entries()) == 1

    def test_forward_nothing_is_a_noop(self, tmp_path, make_relay):
        relay = make_relay(tmp_path, ("127.0.0.1", 1))
        assert relay.forward() == 0


class TestCrashWindows:
    """Every restart window converges to exactly-once at the root."""

    def test_replay_after_crash_between_ack_and_commit(self, tmp_path,
                                                       root, make_relay):
        service, server = root
        relay = make_relay(tmp_path, server.address, batch=8)
        sent = [pset(i) for i in range(5)]
        for i, ps in enumerate(sent):
            relay.accept_sequenced("c1", i + 1, ps.to_bytes())

        class CrashAfterAck:
            """Upstream push lands, then the relay process 'dies'."""

            def __init__(self, inner):
                self.inner = inner

            def push_with_seq(self, seq, payload):
                self.inner.push_with_seq(seq, payload)
                raise RuntimeError("simulated crash after upstream ack")

            def close(self):
                self.inner.close()

        relay._upstream_client = CrashAfterAck(relay._client())
        with pytest.raises(RuntimeError):
            relay.forward()
        # The ack landed upstream but no commit was written: the
        # in-flight marker survives for the next incarnation.
        assert RelayState(tmp_path / "leaf").inflight is not None

        reborn = make_relay(tmp_path, server.address, batch=8)
        assert reborn.relay_id == relay.relay_id
        reborn.forward()  # replays the same batch under the same seq
        assert reborn.pending_entries() == []
        # The root deduplicated the replay: merged exactly once.
        assert service.snapshot().to_bytes() == \
            ProfileSet.merged(sent).to_bytes()

    def test_replay_after_crash_before_push(self, tmp_path, root, make_relay):
        service, server = root
        relay = make_relay(tmp_path, server.address, batch=8)
        sent = [pset(i + 30) for i in range(3)]
        for i, ps in enumerate(sent):
            relay.accept_sequenced("c1", i + 1, ps.to_bytes())
        # Crash window 1: marker written, push never happened.
        relay.state.inflight = (relay.pending_entries()[-1],
                                relay.state.up_seq + 1)
        relay.state.save()
        reborn = make_relay(tmp_path, server.address, batch=8)
        reborn.forward()
        assert service.snapshot().to_bytes() == \
            ProfileSet.merged(sent).to_bytes()

    def test_restart_purges_below_watermark(self, tmp_path, root, make_relay):
        service, server = root
        relay = make_relay(tmp_path, server.address)
        relay.accept_sequenced("c1", 1, pset(1).to_bytes())
        relay.forward()
        # Crash window 3: commit written, spool cleanup never ran.
        # Resurrect the forwarded entry by hand.
        from repro.core import durable
        from repro.service.protocol import encode_push_seq
        durable.write_atomic(relay.spool._path(1), encode_push_seq(
            "c1", 1, pset(1).to_bytes()))
        reborn = make_relay(tmp_path, server.address)
        assert reborn.pending_entries() == []  # purged, not re-sent
        reborn.forward()
        assert service.snapshot().to_bytes() == \
            ProfileSet.merged([pset(1)]).to_bytes()


class TestLedgerDurability:
    """Downstream dedup survives restarts through state + spool scan."""

    def test_forwarded_marks_survive_restart(self, tmp_path, root, make_relay):
        service, server = root
        relay = make_relay(tmp_path, server.address)
        relay.accept_sequenced("c1", 3, pset(1).to_bytes())
        relay.forward()  # entry leaves the spool; mark folds into state
        reborn = make_relay(tmp_path, server.address)
        status, fresh = reborn.accept_sequenced("c1", 3,
                                                pset(1).to_bytes())
        assert not fresh and "duplicate" in status

    def test_spooled_marks_rebuilt_on_restart(self, tmp_path, make_relay):
        relay = make_relay(tmp_path, ("127.0.0.1", 1))
        relay.accept_sequenced("c1", 2, pset(1).to_bytes())
        # Never forwarded; the ledger entry must come from the spool.
        reborn = make_relay(tmp_path, ("127.0.0.1", 1))
        status, fresh = reborn.accept_sequenced("c1", 2,
                                                pset(1).to_bytes())
        assert not fresh and "duplicate" in status
        assert len(reborn.pending_entries()) == 1

    def test_state_file_round_trips(self, tmp_path):
        state = RelayState(tmp_path)
        state.relay_id = "relay-x"
        state.forwarded = 7
        state.up_seq = 3
        state.inflight = (9, 4)
        state.ledger = {"c1": 5}
        state.save()
        loaded = RelayState(tmp_path)
        assert loaded.relay_id == "relay-x"
        assert loaded.forwarded == 7
        assert loaded.up_seq == 3
        assert loaded.inflight == (9, 4)
        assert loaded.ledger == {"c1": 5}

    def test_corrupt_state_file_is_loud(self, tmp_path):
        (tmp_path / "relay-state.json").write_text("{not json")
        with pytest.raises(ValueError):
            RelayState(tmp_path)


class TestRelayServer:
    """The served relay: wire dedup, metrics, drain-forwards."""

    def test_served_relay_forwards_on_drain(self, tmp_path, root, make_relay):
        service, server = root
        relay = make_relay(tmp_path, server.address, batch=100)
        leaf = RelayServer(relay, flush_interval=None)  # no forwarder
        leaf.serve_in_thread()
        try:
            from repro.service.client import ServiceClient
            host, port = leaf.address
            sent = [pset(i + 70) for i in range(3)]
            with ServiceClient(host, port) as client:
                for i, ps in enumerate(sent):
                    status = client.push_sequenced("c9", i + 1,
                                                   ps.to_bytes())
                    assert "relayed" in status
                page = client.metrics()
                assert "osprof_relay_accepted_total 3" in page
                snap = client.snapshot()  # pending merge, pre-forward
            assert snap.to_bytes() == ProfileSet.merged(sent).to_bytes()
            assert leaf.drain(5.0)
            assert relay.pending_entries() == []
            assert service.snapshot().to_bytes() == \
                ProfileSet.merged(sent).to_bytes()
        finally:
            leaf.server_close()

    def test_root_only_frames_refused_connection_survives(self, tmp_path,
                                                          make_relay):
        relay = make_relay(tmp_path, ("127.0.0.1", 1))
        leaf = RelayServer(relay, flush_interval=None)
        leaf.serve_in_thread()
        try:
            with ServiceClient(*leaf.address) as client:
                for ftype, body in (
                        (FrameType.SQL, encode_json({"sql": "SELECT 1"})),
                        (FrameType.STATE_PUSH, encode_state_push(0, b"")),
                        (FrameType.STATE_SNAPSHOT, b"")):
                    send_frame(client._sock, ftype, body)
                    rtype, payload = recv_frame(client._sock)
                    assert rtype == FrameType.ERROR
                    assert FrameType.name(ftype) in payload.decode()
                status = client.push_sequenced("c1", 1, pset().to_bytes())
                assert "relayed" in status
                page = client.metrics()
            assert "osprof_relay_accepted_total 1" in page
            assert "osprof_aio_connections_active 1" in page
            assert "osprof_aio_parser_buffered_max" in page
        finally:
            leaf.server_close()
