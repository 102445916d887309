"""The event-loop transport honors every contract the threaded one does.

Same wire protocol (the unmodified blocking :class:`ServiceClient`
talks to it), same canonical merge results, same hardening: oversize
frames judged from the header, idle peers timed out, saturated ingest
slots answered with ``RETRY_AFTER``, graceful drain losing nothing that
was acked — plus the invariant the threaded server never needed:
per-connection buffering stays bounded no matter how hard a client
pipelines.

The transport is the ingest gate of both services it serves: the
hardening tests run against a root (``make_server``) and, in
:class:`TestRelayGate`, against a relay (``make_relay``), and read the
gate's counters from the transport and from its ``METRICS`` reply.
"""

import socket
import struct
import threading
import time

import pytest

from repro.core.profileset import ProfileSet
from repro.service.aio_server import READ_CHUNK, AsyncProfileServer
from repro.service.client import (RetryAfter, ServiceClient, ServiceError,
                                  parse_endpoint)
from repro.service.protocol import (MAGIC, FrameType, decode_retry_after,
                                    encode_push_seq, recv_frame,
                                    send_frame, _HEADER)
from repro.service.relay import RelayServer, RelayService
from repro.service.server import ProfileService, ServiceConfig


def pset(seed=0, ops=20):
    return ProfileSet.from_operation_latencies(
        {"read": [100 + seed * 13 + i * 7 for i in range(ops)],
         "write": [4000 + seed * 5 + i * 11 for i in range(ops // 2)]})


def frame(ftype, payload=b""):
    return _HEADER.pack(MAGIC, ftype, len(payload)) + payload


def make_server(**config_kwargs):
    config_kwargs.setdefault("segment_seconds", 3600.0)
    service = ProfileService(config=ServiceConfig(**config_kwargs))
    server = AsyncProfileServer(service)
    server.serve_in_thread()
    return service, server


def make_relay(root, **config_kwargs):
    """A relay transport with no forwarder: pushes stay spooled."""
    relay = RelayService(root, upstream=("127.0.0.1", 1),
                         config=ServiceConfig(**config_kwargs))
    server = RelayServer(relay, flush_interval=None)
    server.serve_in_thread()
    return relay, server


@pytest.fixture
def make():
    """The transport under test; :class:`TestRelayGate` swaps in a relay."""
    return make_server


def accepted(service) -> int:
    """Pushes a root merged or a relay spooled."""
    if isinstance(service, RelayService):
        return service.accepted
    return service.ingest_requests


def gate_metrics(server) -> str:
    """The gate's three lines of the transport's ``METRICS`` reply."""
    host, port = server.address
    with ServiceClient(host, port) as client:
        page = client.metrics()
    return "".join(line + "\n" for line in page.splitlines()
                   if line.startswith(("osprof_backpressure_total ",
                                       "osprof_frames_oversize_total ",
                                       "osprof_read_timeouts_total ")))


class TestWireParity:
    """The blocking clients speak to the event loop unchanged."""

    def test_push_metrics_snapshot_roundtrip(self):
        service, server = make_server()
        try:
            host, port = server.address
            sent = [pset(i) for i in range(4)]
            with ServiceClient(host, port) as client:
                for ps in sent:
                    status = client.push(ps)
                    assert "merged" in status
                page = client.metrics()
                assert "osprof_ingest_requests_total 4" in page
                assert "osprof_aio_connections_total" in page
                snap = client.snapshot()
            assert snap.to_bytes() == ProfileSet.merged(sent).to_bytes()
        finally:
            server.server_close()

    def test_sequenced_push_deduplicates(self):
        service, server = make_server()
        try:
            host, port = server.address
            ps = pset(7)
            with ServiceClient(host, port) as client:
                first = client.push_sequenced("c1", 1, ps.to_bytes())
                replay = client.push_sequenced("c1", 1, ps.to_bytes())
                assert "merged" in first
                assert "duplicate" in replay
                snap = client.snapshot()
            assert snap.to_bytes() == ProfileSet.merged([ps]).to_bytes()
        finally:
            server.server_close()

    def test_corrupt_push_gets_error_and_connection_survives(self):
        service, server = make_server()
        try:
            host, port = server.address
            with ServiceClient(host, port) as client:
                with pytest.raises(ServiceError):
                    client.push_payload(b"this is not a profile")
                # Same connection still works afterwards.
                assert "merged" in client.push(pset())
        finally:
            server.server_close()

    def test_alerts_roundtrip(self):
        service, server = make_server()
        try:
            host, port = server.address
            with ServiceClient(host, port) as client:
                cursor, alerts = client.alerts(0)
                assert alerts == []
        finally:
            server.server_close()

    def test_parse_endpoint_helper(self):
        assert parse_endpoint("127.0.0.1:7461") == ("127.0.0.1", 7461)


class TestHardening:
    """Oversize guard, read timeout, protocol desync — all preserved."""

    @pytest.mark.parametrize("port", [70000, -1])
    def test_unbindable_port_raises_at_once(self, port):
        # bind() raises OverflowError, not OSError, for a port out of
        # range: the caller must get it now, not a 10 s wait for a bind
        # that never comes.
        server = AsyncProfileServer(ProfileService(), port=port)
        start = time.monotonic()
        with pytest.raises(OverflowError):
            server.serve_in_thread()
        assert time.monotonic() - start < 5.0
        server._thread.join(timeout=5.0)
        assert not server._thread.is_alive()

    def test_oversize_frame_rejected_from_header(self, make):
        service, server = make(max_frame_bytes=1024)
        try:
            host, port = server.address
            sock = socket.create_connection((host, port), timeout=5.0)
            try:
                # Header alone declares 1 MiB: no payload ever sent.
                sock.sendall(struct.pack("<4sBI", MAGIC, FrameType.PUSH,
                                         1 << 20))
                frame = recv_frame(sock)
                assert frame is not None
                ftype, payload = frame
                assert ftype == FrameType.ERROR
                assert b"exceeds" in payload
                assert recv_frame(sock) is None  # server closed
            finally:
                sock.close()
            assert server.frames_oversize == 1
            assert gate_metrics(server) == (
                "osprof_backpressure_total 0\n"
                "osprof_frames_oversize_total 1\n"
                "osprof_read_timeouts_total 0\n")
        finally:
            server.server_close()

    def test_bad_magic_drops_connection(self):
        service, server = make_server()
        try:
            host, port = server.address
            sock = socket.create_connection((host, port), timeout=5.0)
            try:
                sock.sendall(b"JUNK" + b"\x01\x00\x00\x00\x00")
                assert recv_frame(sock) is None
            finally:
                sock.close()
        finally:
            server.server_close()

    def test_idle_connection_times_out(self, make):
        service, server = make(read_timeout=0.2)
        try:
            host, port = server.address
            sock = socket.create_connection((host, port), timeout=5.0)
            try:
                assert recv_frame(sock) is None  # dropped, not served
            finally:
                sock.close()
            deadline = time.time() + 5.0
            while server.read_timeouts == 0 and time.time() < deadline:
                time.sleep(0.01)
            assert server.read_timeouts == 1
            assert gate_metrics(server) == (
                "osprof_backpressure_total 0\n"
                "osprof_frames_oversize_total 0\n"
                "osprof_read_timeouts_total 1\n")
        finally:
            server.server_close()

    def test_unsupported_frame_type_answers_error(self):
        service, server = make_server()
        try:
            host, port = server.address
            sock = socket.create_connection((host, port), timeout=5.0)
            try:
                send_frame(sock, 0x7F, b"")
                frame = recv_frame(sock)
                assert frame is not None and frame[0] == FrameType.ERROR
            finally:
                sock.close()
        finally:
            server.server_close()


class TestBackpressure:
    """Saturated ingest slots shed load with RETRY_AFTER, identically."""

    def test_saturated_slots_answer_retry_after(self, make):
        service, server = make(max_pending=2, retry_after_seconds=0.07)
        try:
            host, port = server.address
            # Occupy every slot out-of-band: the transport and this
            # test share the transport's one gate.
            assert server.ingest_slots.acquire(blocking=False)
            assert server.ingest_slots.acquire(blocking=False)
            try:
                with ServiceClient(host, port) as client:
                    with pytest.raises(RetryAfter) as exc_info:
                        client.push(pset())
                    assert exc_info.value.seconds == pytest.approx(0.07)
            finally:
                server.ingest_slots.release()
                server.ingest_slots.release()
            assert server.backpressure_rejections == 1
            assert accepted(service) == 0
            assert gate_metrics(server) == (
                "osprof_backpressure_total 1\n"
                "osprof_frames_oversize_total 0\n"
                "osprof_read_timeouts_total 0\n")
            # Slots freed: the same wire accepts pushes again.
            with ServiceClient(host, port) as client:
                assert " ops over " in client.push(pset())
            assert accepted(service) == 1
        finally:
            server.server_close()


class TestBatchedReplies:
    """Every frame of one read is answered, in order, by one write."""

    def test_mixed_burst_answered_in_stream_order(self):
        service, server = make_server()
        try:
            host, port = server.address
            good = pset(1).to_bytes()
            burst = b"".join([
                frame(FrameType.PUSH_SEQ, encode_push_seq("c1", 1, good)),
                frame(FrameType.PUSH_SEQ, encode_push_seq("c1", 1, good)),
                frame(FrameType.PUSH_SEQ,
                      encode_push_seq("c1", 2, b"not a profile")),
                frame(0x7F),
                frame(FrameType.METRICS),
                frame(FrameType.PUSH_SEQ, encode_push_seq("c1", 2, good)),
            ])
            sock = socket.create_connection((host, port), timeout=10.0)
            try:
                sock.sendall(burst)
                replies = [recv_frame(sock) for _ in range(6)]
            finally:
                sock.close()
            assert [r[0] for r in replies] == [
                FrameType.OK, FrameType.OK, FrameType.ERROR,
                FrameType.ERROR, FrameType.TEXT, FrameType.OK]
            assert replies[0][1].startswith(b"merged ")
            assert replies[0][1].endswith(b"(seq 1)")
            assert replies[1][1].startswith(b"duplicate of push seq 1")
            assert replies[2][1].startswith(b"bad-payload: ")
            assert replies[3][1].startswith(b"unsupported frame type")
            assert b"osprof_aio_reply_buffered_max" in replies[4][1]
            assert replies[5][1].endswith(b"(seq 2)")
            assert service.snapshot().to_bytes() == \
                ProfileSet.merged([pset(1), pset(1)]).to_bytes()
        finally:
            server.server_close()

    def test_large_replies_flushed_early(self):
        service, server = make_server()
        try:
            host, port = server.address
            ops = {f"op{i:03d}": [100.0 * (i + 1)] * 3 for i in range(60)}
            service.ingest_payload(
                ProfileSet.from_operation_latencies(ops).to_bytes())
            reply_size = _HEADER.size + len(service.snapshot().to_bytes())
            count = 2000
            sock = socket.create_connection((host, port), timeout=30.0)
            try:
                sock.sendall(frame(FrameType.SNAPSHOT) * count)
                for _ in range(count):
                    reply = recv_frame(sock)
                    assert reply is not None
                    assert reply[0] == FrameType.PROFILE
            finally:
                sock.close()
            assert count * reply_size > 4 * READ_CHUNK
            # Replies of one read wait unwritten only until they fill a
            # read chunk: at most READ_CHUNK bytes plus one reply.
            assert 0 < server.max_reply_buffered \
                <= READ_CHUNK + reply_size
            page = server.metrics_text()
            assert f"osprof_aio_reply_buffered_max " \
                f"{server.max_reply_buffered}\n" in page
        finally:
            server.server_close()

    def test_gated_frames_of_a_saturated_batch_all_retry(self, make):
        service, server = make(max_pending=2, retry_after_seconds=0.07)
        try:
            host, port = server.address
            push = frame(FrameType.PUSH, pset().to_bytes())
            slots = server.ingest_slots
            assert slots.acquire(blocking=False)
            assert slots.acquire(blocking=False)
            sock = socket.create_connection((host, port), timeout=10.0)
            try:
                sock.sendall(push * 5 + frame(FrameType.METRICS))
                replies = [recv_frame(sock) for _ in range(6)]
                assert [r[0] for r in replies[:5]] == \
                    [FrameType.RETRY_AFTER] * 5
                assert decode_retry_after(replies[0][1]) == \
                    pytest.approx(0.07)
                assert replies[5][0] == FrameType.TEXT
                assert b"osprof_backpressure_total 5\n" in replies[5][1]
                assert server.backpressure_rejections == 5
                assert accepted(service) == 0
                # One slot free: the whole batch runs under it.
                slots.release()
                sock.sendall(push * 5)
                replies = [recv_frame(sock) for _ in range(5)]
                assert [r[0] for r in replies] == [FrameType.OK] * 5
            finally:
                sock.close()
            assert accepted(service) == 5
            # Once the batch is written its slot comes back: both slots
            # can be claimed again.
            slots.release()
            deadline = time.time() + 5.0
            claimed = 0
            while claimed < 2 and time.time() < deadline:
                if slots.acquire(blocking=False):
                    claimed += 1
                else:
                    time.sleep(0.01)
            assert claimed == 2
            slots.release()
            slots.release()
            assert gate_metrics(server) == (
                "osprof_backpressure_total 5\n"
                "osprof_frames_oversize_total 0\n"
                "osprof_read_timeouts_total 0\n")
        finally:
            server.server_close()


class TestRelayGate:
    """The same gate tests against a relay: its transport is the gate."""

    @pytest.fixture
    def make(self, tmp_path):
        return lambda **config: make_relay(tmp_path / "relay", **config)

    test_oversize_frame_rejected_from_header = \
        TestHardening.test_oversize_frame_rejected_from_header
    test_idle_connection_times_out = \
        TestHardening.test_idle_connection_times_out
    test_saturated_slots_answer_retry_after = \
        TestBackpressure.test_saturated_slots_answer_retry_after
    test_gated_frames_of_a_saturated_batch_all_retry = \
        TestBatchedReplies.test_gated_frames_of_a_saturated_batch_all_retry


class TestBoundedMemory:
    """Pipelining cannot grow an unbounded pending-frame queue."""

    def test_pipelined_burst_all_answered_in_order(self):
        service, server = make_server()
        try:
            host, port = server.address
            payload = pset(3, ops=10).to_bytes()
            frame = _HEADER.pack(MAGIC, FrameType.PUSH,
                                 len(payload)) + payload
            count = 64
            sock = socket.create_connection((host, port), timeout=10.0)
            try:
                sock.sendall(frame * count)  # one burst, no reads between
                for _ in range(count):
                    reply = recv_frame(sock)
                    assert reply is not None and reply[0] == FrameType.OK
            finally:
                sock.close()
            assert service.ingest_requests == count
            # The invariant: every already-buffered frame is dispatched
            # before the next read, so the parser never holds more than
            # one read chunk plus one partial frame.
            assert server.max_parser_buffered <= READ_CHUNK \
                + _HEADER.size + len(payload)
        finally:
            server.server_close()


class TestDrain:
    """Graceful drain: acked pushes are merged, listeners go quiet."""

    def test_drain_loses_no_acked_push(self):
        service, server = make_server(max_pending=32)
        host, port = server.address
        acked_ops = []
        sent_ops = []
        stop = threading.Event()

        def pusher(seed):
            client = ServiceClient(host, port)
            k = 0
            try:
                while not stop.is_set():
                    ps = pset(seed * 1000 + k, ops=8)
                    sent_ops.append(ps.total_ops())
                    try:
                        client.push(ps)
                    except Exception:
                        return  # drain cut us off mid-request
                    acked_ops.append(ps.total_ops())
                    k += 1
            finally:
                client.close()

        threads = [threading.Thread(target=pusher, args=(i,))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        time.sleep(0.3)
        stop.set()
        assert server.drain(timeout=5.0)
        for thread in threads:
            thread.join(timeout=5.0)
        merged = service.snapshot().total_ops()
        # Every acked push is merged; unacked ones may or may not be.
        assert merged >= sum(acked_ops) > 0
        assert merged <= sum(sent_ops)
        # The listener is closed: new connections are refused.
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=1.0).close()
        server.server_close()

    def test_drain_cancels_idle_stragglers(self):
        service, server = make_server(read_timeout=60.0)
        host, port = server.address
        # An idle watcher parked on a read, holding a connection open.
        sock = socket.create_connection((host, port), timeout=5.0)
        deadline = time.time() + 5.0
        while server.active_connections == 0 and time.time() < deadline:
            time.sleep(0.01)
        assert not server.drain(timeout=0.3)  # straggler was cancelled
        assert server.active_connections == 0
        assert server.drain_cancelled == 1
        sock.close()
        server.server_close()

    def test_server_close_is_idempotent(self):
        service, server = make_server()
        server.server_close()
        server.server_close()
