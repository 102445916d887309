"""Wait-state frames (``STATE_PUSH``/``STATE_SNAPSHOT``) over the wire.

The blocking client pushes a StateProfile, the service folds it into
its rolling state window (and its warehouse, when one is attached), and
the snapshot comes back as one canonically merged profile.
"""

import pytest

from repro.sampling import StateProfile
from repro.service.aio_server import AsyncProfileServer
from repro.service.client import ServiceClient, ServiceError
from repro.service.protocol import (FrameType, ProtocolError,
                                    decode_state_push, encode_state_push)
from repro.service.server import ProfileService, ServiceConfig
from repro.warehouse import Warehouse


def sprof(seed=0, intervals=2):
    out = StateProfile(name="state-samples", interval=500.0)
    out.intervals = intervals
    out.add("blocked", "filesystem", "llseek", "sem:i_sem:3", 30 + seed)
    out.add("blocked", "filesystem", "read", "io:read", 9)
    out.add("running", "user", "-", "-", 4)
    return out


class TestStatePushCodec:
    def test_round_trip(self):
        payload = encode_state_push(1234, sprof().to_bytes())
        overhead, body = decode_state_push(payload)
        assert overhead == 1234
        assert StateProfile.from_bytes(body) == sprof()

    def test_negative_overhead_rejected(self):
        with pytest.raises(ProtocolError):
            encode_state_push(-1, b"")

    def test_truncated_payload_rejected(self):
        with pytest.raises(ProtocolError, match="truncated"):
            decode_state_push(b"\x00\x01\x02")

    def test_zero_overhead_empty_profile_is_legal(self):
        empty = StateProfile(name="e", interval=1.0)
        overhead, body = decode_state_push(
            encode_state_push(0, empty.to_bytes()))
        assert overhead == 0
        assert StateProfile.from_bytes(body).total_samples() == 0


def make_service(**config_kwargs):
    config_kwargs.setdefault("segment_seconds", 3600.0)
    return ProfileService(config=ServiceConfig(**config_kwargs))


@pytest.fixture
def server_factory():
    """Serve a service; the factory returns its address."""
    opened = []

    def build(service):
        server = AsyncProfileServer(service)
        server.serve_in_thread()
        opened.append(server)
        return server.address

    yield build
    for server in opened:
        server.server_close()


class TestStateFrames:
    def test_push_then_snapshot_merges_window(self, server_factory):
        service = make_service()
        host, port = server_factory(service)
        pushes = [sprof(i) for i in range(3)]
        with ServiceClient(host, port) as client:
            for push in pushes:
                status = client.push_state(push, overhead_ns=100)
                assert "sampled" in status
            snap = client.state_snapshot()
        assert snap.to_bytes() == StateProfile.merged(
            pushes, name="state-window").to_bytes()
        assert service.state_pushes == 3

    def test_metrics_carry_state_and_sampler_counters(self,
                                                      server_factory):
        service = make_service()
        host, port = server_factory(service)
        with ServiceClient(host, port) as client:
            client.push_state(sprof(), overhead_ns=777)
            page = client.metrics()
        assert "osprof_state_pushes_total 1" in page
        assert "osprof_state_errors_total 0" in page
        assert "osprof_state_window 1" in page
        assert "osprof_samples_total 43" in page
        assert "osprof_sample_intervals_total 2" in page
        assert "osprof_sampler_overhead_ns_total 777" in page

    def test_corrupt_state_push_counted_connection_survives(
            self, server_factory):
        service = make_service()
        host, port = server_factory(service)
        with ServiceClient(host, port) as client:
            with pytest.raises(ServiceError, match="bad-payload"):
                client._roundtrip(
                    FrameType.STATE_PUSH,
                    encode_state_push(0, b"not a state profile"),
                    FrameType.OK)
            # Same connection keeps working after the rejection.
            client.push_state(sprof())
            snap = client.state_snapshot()
        assert snap.total_samples() == sprof().total_samples()
        assert service.state_errors == 1
        assert service.state_pushes == 1

    def test_state_window_is_bounded(self, server_factory):
        service = make_service(state_window=2)
        host, port = server_factory(service)
        with ServiceClient(host, port) as client:
            for i in range(5):
                client.push_state(sprof(i))
            snap = client.state_snapshot()
        # Only the two newest pushes (seeds 3, 4) survive the deque.
        assert snap.to_bytes() == StateProfile.merged(
            [sprof(3), sprof(4)], name="state-window").to_bytes()

    def test_empty_window_snapshot_is_empty_profile(self, server_factory):
        host, port = server_factory(make_service())
        with ServiceClient(host, port) as client:
            snap = client.state_snapshot()
        assert snap.total_samples() == 0


class TestWarehouseDurability:
    def test_state_pushes_reach_the_warehouse(self, tmp_path,
                                              server_factory):
        wh = Warehouse(tmp_path / "wh")
        service = ProfileService(
            config=ServiceConfig(segment_seconds=3600.0), warehouse=wh)
        host, port = server_factory(service)
        with ServiceClient(host, port) as client:
            client.push_state(sprof(0))
            client.push_state(sprof(1))
        merged = wh.query_states("service")
        assert merged.to_bytes() == StateProfile.merged(
            [sprof(0), sprof(1)]).to_bytes()
        # And the latency side of the warehouse saw nothing.
        assert wh.segments("service") == []
