"""Tests for the self-healing client: backoff, classification, retries."""

import random
import socket

import pytest

from repro.core.profileset import ProfileSet
from repro.service.client import (Backoff, ResilientServiceClient,
                                  RetryAfter, ServiceClient, ServiceError,
                                  ServiceUnavailableError, is_retryable)
from repro.service.protocol import ProtocolError
from repro.service.aio_server import AsyncProfileServer
from repro.service.server import ProfileService, ServiceConfig


def pset(latency=100.0, ops=20):
    return ProfileSet.from_operation_latencies({"read": [latency] * ops})


@pytest.fixture
def server():
    srv = AsyncProfileServer(ProfileService(ServiceConfig(
        segment_seconds=60.0, retry_after_seconds=0.01)))
    srv.serve_in_thread()
    yield srv
    srv.server_close()


def free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestBackoff:
    def test_delay_within_full_jitter_envelope(self):
        backoff = Backoff(base=0.1, cap=1.0, rng=random.Random(1))
        for attempt in range(8):
            delay = backoff.delay(attempt)
            assert 0.0 <= delay <= min(1.0, 0.1 * 2 ** attempt)

    def test_cap_bounds_late_attempts(self):
        backoff = Backoff(base=0.5, cap=1.0, rng=random.Random(2))
        assert all(backoff.delay(20) <= 1.0 for _ in range(32))

    def test_injected_rng_reproduces_schedule(self):
        a = Backoff(base=0.1, rng=random.Random(7))
        b = Backoff(base=0.1, rng=random.Random(7))
        assert [a.delay(n) for n in range(6)] == \
            [b.delay(n) for n in range(6)]

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            Backoff(base=0.0)
        with pytest.raises(ValueError):
            Backoff(base=1.0, cap=0.5)


class TestClassification:
    def test_transport_errors_are_retryable(self):
        assert is_retryable(ConnectionRefusedError("refused"))
        assert is_retryable(ConnectionResetError("reset"))
        assert is_retryable(socket.timeout("slow"))
        assert is_retryable(ProtocolError("desync"))
        assert is_retryable(RetryAfter(0.1))

    def test_transit_damage_is_retryable(self):
        assert is_retryable(ServiceError("bad-payload: CRC mismatch"))

    def test_server_rejection_is_fatal(self):
        assert not is_retryable(ServiceError("resolution 2 differs"))

    def test_name_resolution_is_fatal(self):
        assert not is_retryable(socket.gaierror("no such host"))

    def test_unrelated_exceptions_are_fatal(self):
        assert not is_retryable(KeyError("x"))


class TestRetryEngine:
    def test_unreachable_service_raises_typed_error_with_cause(self):
        slept = []
        client = ResilientServiceClient(
            "127.0.0.1", free_port(), retries=2,
            backoff=Backoff(base=0.001, rng=random.Random(0)),
            sleep=slept.append)
        with pytest.raises(ServiceUnavailableError) as info:
            client.push(pset())
        assert "3 attempt(s)" in str(info.value)
        assert isinstance(info.value.__cause__, OSError)
        assert len(slept) == 2  # no sleep after the final attempt
        assert client.retries_performed == 3

    def test_push_succeeds_against_live_server(self, server):
        host, port = server.address
        with ResilientServiceClient(host, port, retries=1) as client:
            assert "seq 1" in client.push(pset())
            assert "seq 2" in client.push(pset())
        assert server.service.ingest_requests == 2

    def test_retry_after_consumes_attempt_then_succeeds(self, server):
        host, port = server.address
        service = server.service
        slots = server.ingest_slots
        assert slots.acquire(blocking=False)  # congest: hold a slot
        held = {"active": True}

        def sleep(seconds):
            # The client honoring RETRY_AFTER sleeps the suggested time;
            # the congestion clears while it waits.
            if held["active"]:
                slots.release()
                held["active"] = False

        config_pending = service.config.max_pending
        for _ in range(config_pending - 1):
            assert slots.acquire(blocking=False)
        try:
            with ResilientServiceClient(host, port, retries=2,
                                        sleep=sleep) as client:
                assert "seq 1" in client.push(pset())
            assert not held["active"]
            assert server.backpressure_rejections >= 1
            assert service.ingest_requests == 1
        finally:
            for _ in range(config_pending - 1):
                slots.release()

    def test_independent_clients_never_dedup_each_other(self, server):
        # Spool-less clients restart their sequences at 1, so default
        # identities must be unique per client — two pushers in one
        # process must both land.
        host, port = server.address
        with ResilientServiceClient(host, port, retries=1) as first:
            first.push(pset())
        with ResilientServiceClient(host, port, retries=1) as second:
            status = second.push(pset())
        assert "duplicate" not in status
        assert server.service.ingest_requests == 2

    def test_queries_share_the_healing_loop(self, server):
        host, port = server.address
        with ResilientServiceClient(host, port, retries=1) as client:
            client.push(pset(ops=50))
            assert "osprof_ingest_requests_total 1" in client.metrics()
            assert client.snapshot()["read"].total_ops == 50


class TestSpoolMode:
    def test_push_spools_when_service_down(self, tmp_path):
        client = ResilientServiceClient(
            "127.0.0.1", free_port(), retries=0, spool_dir=str(tmp_path),
            backoff=Backoff(base=0.001), sleep=lambda s: None)
        status = client.push(pset())
        assert "spooled seq 1" in status
        assert len(client.spool) == 1

    def test_backlog_drains_on_next_push(self, server, tmp_path):
        host, port = server.address
        offline = ResilientServiceClient(
            "127.0.0.1", free_port(), retries=0, spool_dir=str(tmp_path),
            sleep=lambda s: None)
        offline.push(pset(latency=100.0))
        with ResilientServiceClient(host, port, retries=1,
                                    spool_dir=str(tmp_path)) as client:
            status = client.push(pset(latency=200.0))
        assert "drained 2" in status
        assert server.service.ingest_requests == 2
        assert len(client.spool) == 0


class TestCloseError:
    def test_close_records_oserror_instead_of_raising(self):
        class BrokenSocket:
            def close(self):
                raise OSError("close failed")

        client = ServiceClient("", 0, sock=BrokenSocket())
        client.close()  # must not raise
        assert isinstance(client.close_error, OSError)
