"""Tests for the profiling service core, its frame table and transport."""

import math
import socket

import pytest

from repro.core.profileset import ProfileSet
from repro.service.aio_server import AsyncProfileServer
from repro.service.client import ServiceClient, ServiceError, parse_endpoint
from repro.service.protocol import (FrameType, decode_retry_after,
                                    encode_json, encode_push_seq,
                                    recv_frame, send_frame)
from repro.service.server import (FRAME_HANDLERS, ProfileService,
                                  ServiceConfig)
from repro.warehouse import Warehouse

from ..clock import FakeClock


def pset(samples):
    return ProfileSet.from_operation_latencies(samples)


STEADY = {"read": [100.0] * 100}


@pytest.fixture
def service():
    clock = FakeClock()
    svc = ProfileService(
        ServiceConfig(segment_seconds=5.0, retention=16,
                      baseline_segments=4, threshold=0.5, min_ops=10),
        clock=clock)
    svc.test_clock = clock
    return svc


@pytest.fixture
def server(service):
    srv = AsyncProfileServer(service)
    srv.serve_in_thread()
    yield srv
    srv.server_close()


@pytest.fixture
def client(server):
    host, port = server.address
    with ServiceClient(host, port) as c:
        yield c


class TestProfileService:
    def test_ingest_and_snapshot(self, service):
        service.ingest_payload(pset(STEADY).to_bytes())
        snap = service.snapshot()
        assert snap["read"].total_ops == 100

    def test_corrupt_payload_counted_and_rejected(self, service):
        with pytest.raises(ValueError):
            service.ingest_payload(b"not a profile")
        assert service.ingest_errors == 1
        assert service.ingest_requests == 0

    def test_alert_flow_across_segments(self, service):
        service.ingest_payload(pset(STEADY).to_bytes())
        service.test_clock.now = 6.0
        service.ingest_payload(pset({"read": [500.0] * 100}).to_bytes())
        service.test_clock.now = 12.0
        service.tick()
        cursor, alerts = service.alerts_since(0)
        assert cursor == len(alerts) > 0
        assert alerts[0].operation == "read"
        # Cursor semantics: nothing new when polling from the end.
        cursor2, fresh = service.alerts_since(cursor)
        assert cursor2 == cursor
        assert fresh == []

    def test_metrics_text(self, service):
        service.ingest_payload(pset(STEADY).to_bytes())
        text = service.metrics_text()
        assert "osprof_ingest_requests_total 1" in text
        assert "osprof_ingest_ops_total 100" in text
        assert "osprof_segment_seconds 5" in text
        assert "osprof_ingest_seconds_sum" in text

    def test_alert_log_bounded(self):
        clock = FakeClock()
        svc = ProfileService(
            ServiceConfig(segment_seconds=1.0, retention=4,
                          baseline_segments=1, threshold=0.1, min_ops=10,
                          max_alerts=3),
            clock=clock)
        for i in range(8):
            latency = 100.0 * (4 ** i % 997 + 1)
            svc.ingest_payload(
                pset({"read": [latency] * 50}).to_bytes())
            clock.now += 1.0
        svc.tick()
        cursor, alerts = svc.alerts_since(0)
        assert len(alerts) <= 3
        # Absolute positions survive trimming.
        assert cursor >= len(alerts)


class TestTcpFrontEnd:
    def test_push_metrics_snapshot_alerts(self, client, service):
        status = client.push(pset(STEADY))
        assert "100 ops" in status
        service.test_clock.now = 6.0
        client.push(pset({"read": [500.0] * 100}))
        service.test_clock.now = 12.0
        cursor, alerts = client.alerts(0)
        assert [a.operation for a in alerts] == ["read"]
        assert "osprof_ingest_requests_total 2" in client.metrics()
        snap = client.snapshot()
        assert snap["read"].total_ops == 200

    def test_corrupt_push_gets_error_frame_and_connection_survives(
            self, client):
        with pytest.raises(ServiceError):
            client.push_payload(b"OSPROFB1garbage")
        # Same connection still works.
        assert "ops" in client.push(pset(STEADY))

    def test_unknown_frame_type_reports_error(self, server):
        host, port = server.address
        with socket.create_connection((host, port), timeout=10) as sock:
            send_frame(sock, 0x5A, b"")
            ftype, payload = recv_frame(sock)
            assert ftype == FrameType.ERROR
            assert "unsupported" in payload.decode()

    def test_bad_magic_drops_connection(self, server):
        host, port = server.address
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(b"GARBAGE->" * 3)
            assert sock.recv(1024) == b""  # server hung up

    def test_port_zero_picks_a_real_port(self, server):
        assert server.address[1] > 0


class TestFrameTable:
    """One sans-IO table answers every frame, with or without a socket."""

    def test_handlers_need_no_socket(self, service):
        push = FRAME_HANDLERS[FrameType.PUSH]
        assert push.handle(service, pset(STEADY).to_bytes())[0] \
            == FrameType.OK
        rtype, payload = FRAME_HANDLERS[FrameType.SNAPSHOT].handle(
            service, b"")
        assert rtype == FrameType.PROFILE
        assert ProfileSet.from_bytes(payload)["read"].total_ops == 100

    def test_only_ingest_frames_are_gated(self):
        assert {ftype for ftype, handler in FRAME_HANDLERS.items()
                if handler.gated} == {FrameType.PUSH, FrameType.PUSH_SEQ,
                                      FrameType.STATE_PUSH}

    @pytest.mark.parametrize("ftype,body,needle", [
        pytest.param(FrameType.ALERTS, [1], "JSON object", id="alerts-list"),
        pytest.param(FrameType.SQL, "x", "JSON object", id="sql-string"),
        pytest.param(FrameType.ALERTS, {"cursor": None}, "cursor",
                     id="alerts-null-cursor"),
        pytest.param(FrameType.ALERTS, {"cursor": "abc"}, "abc",
                     id="alerts-text-cursor"),
    ])
    def test_bad_request_body_is_an_error_reply(self, client, ftype, body,
                                                needle):
        send_frame(client._sock, ftype, encode_json(body))
        rtype, payload = recv_frame(client._sock)
        assert rtype == FrameType.ERROR
        assert needle in payload.decode()
        # Same connection still works.
        assert "ops" in client.push(pset(STEADY))


class TestSequencedIngest:
    def test_new_sequences_merge(self, service):
        payload = pset(STEADY).to_bytes()
        status, merged = service.ingest_sequenced("c1", 1, payload)
        assert merged and "seq 1" in status
        assert service.snapshot()["read"].total_ops == 100

    def test_replay_acknowledged_without_double_merge(self, service):
        payload = pset(STEADY).to_bytes()
        service.ingest_sequenced("c1", 1, payload)
        status, merged = service.ingest_sequenced("c1", 1, payload)
        assert not merged and "duplicate" in status
        assert service.snapshot()["read"].total_ops == 100
        assert service.ingest_duplicates == 1

    def test_clients_have_independent_sequences(self, service):
        payload = pset(STEADY).to_bytes()
        assert service.ingest_sequenced("a", 1, payload)[1]
        assert service.ingest_sequenced("b", 1, payload)[1]
        assert service.snapshot()["read"].total_ops == 200

    def test_rejected_payload_leaves_sequence_retryable(self, service):
        with pytest.raises(ValueError):
            service.ingest_sequenced("c1", 1, b"garbage")
        status, merged = service.ingest_sequenced(
            "c1", 1, pset(STEADY).to_bytes())
        assert merged and "seq 1" in status

    def test_degradation_metrics_exposed(self, service, server):
        service.ingest_sequenced("c1", 1, pset(STEADY).to_bytes())
        service.ingest_sequenced("c1", 1, pset(STEADY).to_bytes())
        text = service.metrics_text()
        assert "osprof_ingest_duplicates_total 1" in text
        assert "osprof_push_clients 1" in text
        # The transport's gate counters extend the service page.
        page = server.metrics_text()
        assert page.startswith(text)
        assert "osprof_backpressure_total 0\n" in page
        assert "osprof_frames_oversize_total 0\n" in page
        assert "osprof_read_timeouts_total 0\n" in page


class TestHardening:
    def test_push_seq_over_tcp_dedups(self, client, service):
        blob = encode_push_seq("c9", 1, pset(STEADY).to_bytes())
        for _ in range(2):
            send_frame(client._sock, FrameType.PUSH_SEQ, blob)
            ftype, payload = recv_frame(client._sock)
            assert ftype == FrameType.OK
        assert service.ingest_duplicates == 1
        assert service.snapshot()["read"].total_ops == 100

    def test_corrupt_push_seq_reports_bad_payload(self, client):
        blob = encode_push_seq("c9", 1, b"not a profile")
        send_frame(client._sock, FrameType.PUSH_SEQ, blob)
        ftype, payload = recv_frame(client._sock)
        assert ftype == FrameType.ERROR
        assert payload.startswith(b"bad-payload:")

    def test_backpressure_sends_retry_after(self, server, service):
        held = 0
        while server.ingest_slots.acquire(blocking=False):
            held += 1
        assert held == service.config.max_pending
        try:
            host, port = server.address
            with socket.create_connection((host, port), timeout=10) as sock:
                send_frame(sock, FrameType.PUSH, pset(STEADY).to_bytes())
                ftype, payload = recv_frame(sock)
                assert ftype == FrameType.RETRY_AFTER
                assert decode_retry_after(payload) > 0
        finally:
            for _ in range(held):
                server.ingest_slots.release()
        assert server.backpressure_rejections == 1
        assert "osprof_backpressure_total 1\n" in server.metrics_text()

    def test_rejects_nonpositive_max_pending(self):
        with pytest.raises(ValueError):
            ProfileService(ServiceConfig(max_pending=0))

    @pytest.mark.parametrize("field, value", [
        ("read_timeout", 0), ("read_timeout", -1.0),
        ("read_timeout", math.nan), ("read_timeout", math.inf),
        ("retry_after_seconds", -1.0), ("retry_after_seconds", math.nan),
        ("retry_after_seconds", math.inf),
        ("max_frame_bytes", 0), ("max_frame_bytes", -1),
        ("max_pending", -3),
        ("flush_batch", 0),
    ])
    def test_rejects_hardening_values_that_break_serving(self, field,
                                                         value):
        with pytest.raises(ValueError, match=field):
            ServiceConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("read_timeout", 1e-3), ("retry_after_seconds", 0.0),
        ("max_frame_bytes", 1), ("max_pending", 1), ("flush_batch", 1),
    ])
    def test_accepts_the_smallest_serving_values(self, field, value):
        assert getattr(ServiceConfig(**{field: value}), field) == value


class TestGracefulDrain:
    def test_drain_idle_server_is_immediate(self, service):
        server = AsyncProfileServer(service)
        server.serve_in_thread()
        assert server.drain(timeout=5.0)
        assert server.active_connections == 0
        server.server_close()


class TestParseEndpoint:
    def test_parses(self):
        assert parse_endpoint("127.0.0.1:7461") == ("127.0.0.1", 7461)

    def test_rejects_missing_port(self):
        with pytest.raises(ValueError):
            parse_endpoint("localhost")

    def test_rejects_non_integer_port(self):
        with pytest.raises(ValueError):
            parse_endpoint("host:http")

    @pytest.mark.parametrize("port", ["0", "65536", "99999", "-1"])
    def test_rejects_out_of_range_port(self, port):
        # getaddrinfo would wrap 99999 to 34463 and dial the wrong port.
        with pytest.raises(ValueError, match="bad service endpoint"):
            parse_endpoint(f"127.0.0.1:{port}")


class TestWarehouseIntegration:
    """serve --db: closed segments flush durably, restarts seed history."""

    def build(self, tmp_path, **overrides):
        config = dict(segment_seconds=5.0, retention=4,
                      baseline_segments=3, threshold=0.5, min_ops=10)
        config.update(overrides)
        clock = FakeClock()
        svc = ProfileService(ServiceConfig(**config), clock=clock,
                             warehouse=Warehouse(tmp_path / "db"),
                             warehouse_source="svc")
        svc.test_clock = clock
        return svc

    def test_closed_segments_flush_as_consecutive_epochs(self, tmp_path):
        svc = self.build(tmp_path)
        for i in range(3):
            svc.ingest_payload(pset({"read": [100.0 + i] * 20}).to_bytes())
            svc.test_clock.now += 5.0
        svc.tick()
        wh = svc.warehouse
        assert wh.segments_total == 3
        assert [m.epoch for m in wh.segments("svc")] == [0, 1, 2]
        assert wh.query("svc")["read"].total_ops == 60

    def test_eviction_recheck_never_double_ingests(self, tmp_path):
        svc = self.build(tmp_path, retention=2)
        for i in range(8):
            svc.ingest_payload(pset({"read": [100.0] * 20}).to_bytes())
            svc.test_clock.now += 5.0
        svc.tick()
        # Every closed segment landed exactly once, eviction re-checks
        # included.
        assert svc.warehouse.segments_total == 8
        assert svc.warehouse.query("svc")["read"].total_ops == 160

    def test_restart_seeds_baseline_and_continues_epochs(self, tmp_path):
        svc = self.build(tmp_path)
        for _ in range(4):
            svc.ingest_payload(pset(STEADY).to_bytes())
            svc.test_clock.now += 5.0
        svc.tick()

        restarted = self.build(tmp_path)
        assert restarted.baseline_seeded == 3  # baseline_segments
        # New segments append after stored history instead of epoch 0.
        restarted.ingest_payload(pset(STEADY).to_bytes())
        restarted.test_clock.now += 5.0
        restarted.tick()
        epochs = [m.epoch for m in restarted.warehouse.segments("svc")]
        assert epochs == [0, 1, 2, 3, 4]

    def test_restarted_service_alerts_against_stored_history(self, tmp_path):
        svc = self.build(tmp_path)
        for _ in range(4):
            svc.ingest_payload(pset(STEADY).to_bytes())
            svc.test_clock.now += 5.0
        svc.tick()

        restarted = self.build(tmp_path)
        # The very first segment after the restart is judged against
        # real history: a 5x latency shift alerts immediately.
        restarted.ingest_payload(pset({"read": [500.0] * 100}).to_bytes())
        restarted.test_clock.now += 5.0
        restarted.tick()
        _, alerts = restarted.alerts_since(0)
        assert any(a.operation == "read" for a in alerts)

    def test_flush_failure_is_counted_not_fatal(self, tmp_path):
        class BrokenWarehouse(Warehouse):
            def ingest_many(self, source, batch):
                raise OSError("disk full")

        clock = FakeClock()
        svc = ProfileService(
            ServiceConfig(segment_seconds=5.0, retention=4,
                          baseline_segments=3, min_ops=10),
            clock=clock, warehouse=BrokenWarehouse(tmp_path / "db"),
            warehouse_source="svc")
        svc.ingest_payload(pset(STEADY).to_bytes())
        clock.now += 5.0
        svc.tick()  # must not raise
        assert svc.warehouse_flush_errors == 1
        assert "osprof_warehouse_flush_errors_total 1" in svc.metrics_text()

    def test_metrics_expose_warehouse_counters(self, tmp_path):
        svc = self.build(tmp_path)
        svc.ingest_payload(pset(STEADY).to_bytes())
        svc.test_clock.now += 5.0
        svc.tick()
        text = svc.metrics_text()
        assert "osprof_warehouse_segments_total 1" in text
        assert "osprof_warehouse_compactions_total 0" in text
        assert "osprof_warehouse_gc_evictions_total 0" in text
        assert "osprof_warehouse_flush_errors_total 0" in text

    def test_metrics_present_without_warehouse(self, service):
        # The counters exist (at zero) even when serve has no --db, so
        # scrapers never see a metric appear and disappear.
        text = service.metrics_text()
        assert "osprof_warehouse_segments_total 0" in text
        assert "osprof_warehouse_compactions_total 0" in text
        assert "osprof_warehouse_gc_evictions_total 0" in text
