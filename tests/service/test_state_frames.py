"""Wait-state frames (``STATE_PUSH``/``STATE_SNAPSHOT``) over the wire.

The blocking client pushes a StateProfile, the service folds it into
the open store segment (committed to its warehouse, when one is
attached, once the segment closes), and the snapshot comes back as one
canonically merged profile of the retained segments.
"""

import time

import pytest

from repro.sampling import StateProfile
from repro.service.aio_server import AsyncProfileServer
from repro.service.client import ServiceClient, ServiceError
from repro.service.protocol import (FrameType, ProtocolError,
                                    decode_state_push, encode_state_push)
from repro.service.server import ProfileService, ServiceConfig
from repro.warehouse import Warehouse

from ..clock import FakeClock


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


def make_service(clock=time.monotonic, **config_kwargs):
    config_kwargs.setdefault("segment_seconds", 3600.0)
    return ProfileService(config=ServiceConfig(**config_kwargs),
                          clock=clock)


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
        assert "osprof_state_window" not in page
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

    def test_state_snapshot_drops_evicted_segments(self, server_factory):
        clock = FakeClock()
        service = make_service(clock=clock, segment_seconds=1.0,
                               retention=2)
        host, port = server_factory(service)
        with ServiceClient(host, port) as client:
            for i in range(5):
                client.push_state(sprof(i))
                clock.advance(1.0)
            snap = client.state_snapshot()
        # Segments 0 and 1 were evicted; closed segments 2, 3 and the
        # open segment 4 are retained.
        assert snap.to_bytes() == StateProfile.merged(
            [sprof(2), sprof(3), sprof(4)], name="state-window").to_bytes()

    def test_empty_window_snapshot_is_empty_profile(self, server_factory):
        host, port = server_factory(make_service())
        with ServiceClient(host, port) as client:
            snap = client.state_snapshot()
        assert snap.total_samples() == 0


class TestWarehouseDurability:
    def test_state_pushes_reach_the_warehouse(self, tmp_path,
                                              server_factory):
        wh = Warehouse(tmp_path / "wh")
        clock = FakeClock()
        service = ProfileService(
            config=ServiceConfig(segment_seconds=1.0), clock=clock,
            warehouse=wh)
        host, port = server_factory(service)
        with ServiceClient(host, port) as client:
            client.push_state(sprof(0))
            client.push_state(sprof(1))
        # The open segment is not committed yet.
        assert wh.segments("service", kind=None) == []
        clock.advance(1.0)
        service.tick()
        merged = wh.query_states("service")
        assert merged.to_bytes() == StateProfile.merged(
            [sprof(0), sprof(1)]).to_bytes()
        # And the latency side of the warehouse saw nothing.
        assert wh.segments("service") == []

    def test_per_push_samples_history_stays_readable(self, tmp_path):
        # A warehouse from before samples folded into segments holds one
        # samples segment per state push, each at the next epoch.  It
        # still answers query_states, the SQL samples relation and
        # scrub, and a service opened on it appends after it.
        wh = Warehouse(tmp_path / "wh")
        pushes = [sprof(i) for i in range(4)]
        for push in pushes[:3]:
            wh.ingest_state("service", push)
        service = ProfileService(
            config=ServiceConfig(segment_seconds=1.0), clock=FakeClock(),
            warehouse=wh)
        assert service._epoch_base == 3
        service.ingest_state(pushes[3].to_bytes())
        service.close()
        assert [m.epoch for m in wh.segments("service", kind="samples")] \
            == [0, 1, 2, 3]
        merged = StateProfile.merged(pushes)
        assert wh.query_states("service").to_bytes() == merged.to_bytes()
        by_state = {}
        for (state, _layer, _op, _site), count in merged:
            by_state[state] = by_state.get(state, 0) + count
        reply = service.sql("SELECT state, count() GROUP BY state "
                            "ORDER BY state")
        assert reply["rows"] == [list(row) for row in sorted(
            by_state.items())]
        report = wh.scrub()
        assert report.clean and report.scanned == 4
