"""``osprof db sql`` end to end: directory mode, service mode, formats.

The CLI contract under test: good queries print a table/CSV/JSON and
exit 0; every malformed query exits 1 with one ``osprof: error:`` line
(never a traceback); flag misuse exits 2; ``--endpoint`` reaches a live
``serve --db`` service through the same code path as ``--db``.
"""

import csv
import io
import json

import pytest

from repro.cli import main
from repro.core.profile import Layer, Profile
from repro.core.profileset import ProfileSet
from repro.warehouse import Warehouse


def pset(samples, layer=Layer.FILESYSTEM):
    out = ProfileSet()
    for op, latencies in samples.items():
        prof = Profile(op, layer=layer)
        for latency in latencies:
            prof.add(latency)
        out.insert(prof)
    return out


@pytest.fixture
def db(tmp_path):
    wh = Warehouse(tmp_path / "wh")
    wh.ingest("web-1", pset({"read": [100.0] * 6, "llseek": [10.0] * 3}),
              epoch=0)
    wh.ingest("web-2", pset({"read": [5000.0] * 2}), epoch=0)
    return str(tmp_path / "wh")


class TestDirectoryMode:
    def test_table_output(self, db, capsys):
        rc = main(["db", "sql",
                   "SELECT op, count() GROUP BY op ORDER BY op",
                   "--db", db])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["op", "count()"]
        assert lines[2].split() == ["llseek", "3"]
        assert lines[3].split() == ["read", "8"]

    def test_csv_output(self, db, capsys):
        rc = main(["db", "sql",
                   "SELECT source, count() GROUP BY source "
                   "ORDER BY source", "--db", db, "--format", "csv"])
        assert rc == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows == [["source", "count()"],
                        ["web-1", "9"], ["web-2", "2"]]

    def test_json_output(self, db, capsys):
        rc = main(["db", "sql", "SELECT count()",
                   "--db", db, "--format", "json"])
        assert rc == 0
        reply = json.loads(capsys.readouterr().out)
        assert reply == {"columns": ["count()"], "rows": [[11]]}

    def test_null_renders_as_dash_in_table(self, db, capsys):
        # min over an empty group: no rows at all — but a NULL from a
        # baseline gap must not crash the formatter, so exercise one.
        Warehouse(db).save_baseline("base", Warehouse(db).query("web-1"))
        rc = main(["db", "sql",
                   "SELECT op, emd('base') WHERE source = 'web-2' "
                   "GROUP BY op", "--db", db])
        assert rc == 0


class TestErrorHandling:
    @pytest.mark.parametrize("query", [
        "SELEKT 1",
        "SELECT nope",
        "SELECT op, count()",
        "SELECT emd('missing') GROUP BY op",
    ])
    def test_bad_query_exits_one_with_clean_error(self, db, query,
                                                  capsys):
        rc = main(["db", "sql", query, "--db", db])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("osprof: error:")
        assert "Traceback" not in err

    def test_db_and_endpoint_are_mutually_exclusive(self, db, capsys):
        assert main(["db", "sql", "SELECT count()"]) == 2
        assert main(["db", "sql", "SELECT count()", "--db", db,
                     "--endpoint", "localhost:1"]) == 2

    def test_unreachable_endpoint_is_clean_error(self, capsys):
        rc = main(["db", "sql", "SELECT count()",
                   "--endpoint", "127.0.0.1:1"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("osprof: error:")


class TestServiceMode:
    def test_endpoint_queries_live_service(self, db, capsys):
        from repro.service.aio_server import AsyncProfileServer
        from repro.service.server import ProfileService
        service = ProfileService(warehouse=Warehouse(db))
        server = AsyncProfileServer(service)
        server.serve_in_thread()
        host, port = server.address
        try:
            rc = main(["db", "sql", "SELECT count()",
                       "--endpoint", f"{host}:{port}",
                       "--format", "json"])
            assert rc == 0
            reply = json.loads(capsys.readouterr().out)
            assert reply["rows"] == [[11]]
            rc = main(["db", "sql", "SELECT nope",
                       "--endpoint", f"{host}:{port}"])
            assert rc == 1
            assert capsys.readouterr().err.startswith("osprof: error:")
        finally:
            server.server_close()
