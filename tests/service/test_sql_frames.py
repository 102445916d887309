"""SQL over the wire: the ``SQL``/``TABLE`` frame pair.

The service is a thin adapter here — flush queued segments, hand the
query to the warehouse engine, JSON the table back.  What needs pinning
is the seams: results match a direct ``execute_sql`` against the same
directory, queued-but-unflushed ingest is visible to a query, every
failure mode (no ``--db``, bad query, missing baseline) arrives as a
clean ``ServiceError`` on a connection that stays usable.
"""

import pytest

from repro.core.profileset import ProfileSet
from repro.sampling import StateProfile
from repro.service.aio_server import AsyncProfileServer
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import ProfileService, ServiceConfig
from repro.warehouse import Warehouse, execute_sql

from ..clock import FakeClock


def pset(seed=0, ops=20):
    return ProfileSet.from_operation_latencies(
        {"read": [100 + seed * 13 + i * 7 for i in range(ops)],
         "write": [4000 + seed * 5 + i * 11 for i in range(ops // 2)]})


@pytest.fixture
def server_for():
    servers = []

    def start(service):
        server = AsyncProfileServer(service)
        server.serve_in_thread()
        servers.append(server)
        return server

    yield start
    for server in servers:
        server.server_close()


def test_sql_matches_direct_execution(tmp_path, server_for):
    wh = Warehouse(tmp_path)
    for epoch in range(3):
        wh.ingest("svc", pset(epoch), epoch=epoch)
    service = ProfileService(warehouse=wh)
    host, port = server_for(service).address
    query = "SELECT op, count(), total_latency() GROUP BY op ORDER BY op"
    with ServiceClient(host, port) as client:
        columns, rows = client.sql(query)
    want = execute_sql(Warehouse(tmp_path), query)
    assert columns == want.columns
    assert rows == want.rows


def test_sql_flushes_queued_segments_first(tmp_path):
    clock = FakeClock()
    service = ProfileService(
        ServiceConfig(segment_seconds=5.0, flush_batch=10),
        clock=clock, warehouse=Warehouse(tmp_path))
    sent = pset(7)
    service.ingest_payload(sent.to_bytes())
    clock.now += 5.0
    service.tick()  # segment closes, but batching keeps it queued
    assert service.warehouse.segments_total == 0
    reply = service.sql("SELECT count()")
    assert reply["rows"] == [[sent.total_ops()]]
    assert service.warehouse.segments_total == 1


def test_sql_sees_the_ended_segment_of_a_quiet_service(tmp_path):
    # State pushes commit with their segment; a query after the
    # segment's interval ended sees them with no later push or tick.
    clock = FakeClock()
    service = ProfileService(
        ServiceConfig(segment_seconds=5.0), clock=clock,
        warehouse=Warehouse(tmp_path))
    sprof = StateProfile(interval=500.0)
    sprof.add("blocked", "filesystem", "read", "io:read", 9)
    service.ingest_state(sprof.to_bytes())
    query = "SELECT state, count() GROUP BY state"
    assert service.sql(query)["rows"] == []
    clock.now += 5.0
    assert service.sql(query)["rows"] == [["blocked", 9]]


@pytest.mark.parametrize("query,needle", [
    ("SELECT nope", "unknown column"),
    ("SELECT op GROUP", "expected"),
    ("SELECT op, emd('ghost') GROUP BY op", "ghost"),
])
def test_bad_queries_are_clean_service_errors(tmp_path, server_for,
                                              query, needle):
    wh = Warehouse(tmp_path)
    wh.ingest("svc", pset())
    service = ProfileService(warehouse=wh)
    host, port = server_for(service).address
    with ServiceClient(host, port) as client:
        with pytest.raises(ServiceError, match=needle):
            client.sql(query)
        # The connection survives the error frame.
        _, rows = client.sql("SELECT count()")
        assert rows[0][0] > 0


def test_sql_without_warehouse_is_an_error(server_for):
    service = ProfileService()
    host, port = server_for(service).address
    with ServiceClient(host, port) as client:
        with pytest.raises(ServiceError, match="--db"):
            client.sql("SELECT count()")


def test_metrics_export_cache_counters(tmp_path, server_for):
    wh = Warehouse(tmp_path)
    wh.ingest("svc", pset())
    service = ProfileService(warehouse=wh)
    host, port = server_for(service).address
    with ServiceClient(host, port) as client:
        client.sql("SELECT count()")
        client.sql("SELECT count()")
        text = client.metrics()
    metrics = dict(line.rsplit(" ", 1)
                   for line in text.splitlines() if " " in line)
    assert int(metrics["osprof_warehouse_cache_misses_total"]) == 1
    assert int(metrics["osprof_warehouse_cache_hits_total"]) >= 1


def test_metrics_cache_counters_default_to_zero_without_warehouse():
    service = ProfileService()
    text = service.metrics_text()
    assert "osprof_warehouse_cache_hits_total 0" in text
    assert "osprof_warehouse_cache_misses_total 0" in text
