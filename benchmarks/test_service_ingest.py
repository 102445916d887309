"""Performance of the continuous profiling service's ingest path.

The paper's profiles are "≈1 KB per operation" precisely so they are
cheap to ship and merge; these benches keep the service honest about
that budget: decode+merge cost of one pushed segment, end-to-end TCP
push round-trip throughput, rolling-store rotation, and the online
differential scoring of a closed segment.
"""

from repro.core.profileset import ProfileSet, parse_binary
from repro.service.aio_server import AsyncProfileServer
from repro.service.alerts import DifferentialAlerter
from repro.service.client import ServiceClient
from repro.service.server import ProfileService, ServiceConfig
from repro.service.store import SegmentStore


def realistic_segment(ops_per_profile: int = 1000,
                      operations: int = 12) -> ProfileSet:
    """A profile set shaped like one collector segment: ~12 ops, wide."""
    pset = ProfileSet(name="")
    for i in range(operations):
        name = f"op{i:02d}"
        for b in range(5, 30):
            pset.profile(name).histogram.add_to_bucket(
                b, (b * 37 + i * 11) % 97 + 1)
    return pset


def test_perf_ingest_decode_merge(benchmark):
    """Decode one binary segment payload and merge it into the store."""
    payload = realistic_segment().to_bytes()
    service = ProfileService(ServiceConfig(segment_seconds=3600.0,
                                           retention=16))

    ops, operations = benchmark(service.ingest_payload, payload)
    assert ops > 0 and operations == 12
    assert service.ingest_errors == 0


def test_perf_push_round_trip(benchmark):
    """Full TCP round trip: frame, send, decode, merge, ack."""
    server = AsyncProfileServer(ProfileService(
        ServiceConfig(segment_seconds=3600.0, retention=16)))
    server.serve_in_thread()
    host, port = server.address
    pset = realistic_segment()
    try:
        with ServiceClient(host, port) as client:
            status = benchmark(client.push, pset)
        assert "ops" in status
    finally:
        server.server_close()


def test_perf_store_rotation(benchmark):
    """Close + open a segment (the per-interval housekeeping cost)."""
    clock_value = [0.0]
    store = SegmentStore(1.0, retention=256, clock=lambda: clock_value[0])
    _crc, spec, _name, _attributes, rows = parse_binary(
        realistic_segment().to_bytes())

    def rotate():
        store.ingest(spec, rows)
        clock_value[0] += 1.0
        store.advance()

    benchmark(rotate)
    assert store.segments_closed > 0


def test_perf_differential_scoring(benchmark):
    """Score one closed segment against the rolling baseline."""
    alerter = DifferentialAlerter(min_ops=10, threshold=0.5)
    baseline = realistic_segment()
    for i in range(4):
        alerter.observe(i, baseline)
    segment = realistic_segment(operations=12)

    def score():
        return alerter.observe(99, segment)

    alerts = benchmark(score)
    assert isinstance(alerts, list)
