"""CLI flow for the sampled system view: run → push → top/watch/sql.

``osprof run --sample-interval`` writes the state profile beside the
measured dump without moving a byte of it; ``osprof push --samples``
ships it to a server; ``osprof top --once`` and ``osprof db sql``
read the same samples back, ``db sql`` once their segment has closed.
"""

import pytest

from repro.cli import main
from repro.sampling import StateProfile
from repro.service.aio_server import AsyncProfileServer
from repro.service.server import ProfileService
from repro.warehouse import Warehouse

from ..clock import FakeClock

RUN_ARGS = ["run", "randomread", "--processes", "2",
            "--iterations", "150", "--seed", "9"]


@pytest.fixture
def sampled_dump(tmp_path):
    out = tmp_path / "rr.prof"
    rc = main(RUN_ARGS + ["--sample-interval", "0.0005",
                          "-o", str(out)])
    assert rc == 0
    return out


class TestRunSampled:
    def test_writes_state_profile_beside_dump(self, sampled_dump):
        osps = sampled_dump.with_name(sampled_dump.name + ".osps")
        assert osps.exists()
        sprof = StateProfile.load_path(str(osps))
        assert sprof.total_samples() > 0
        assert sprof.intervals > 0

    def test_measured_dump_byte_identical_to_unsampled_run(
            self, sampled_dump, tmp_path):
        plain = tmp_path / "plain.prof"
        assert main(RUN_ARGS + ["-o", str(plain)]) == 0
        assert plain.read_bytes() == sampled_dump.read_bytes()

    def test_explicit_samples_output_path(self, tmp_path):
        out = tmp_path / "rr.prof"
        osps = tmp_path / "elsewhere.osps"
        rc = main(RUN_ARGS + ["--sample-interval", "0.0005",
                              "-o", str(out),
                              "--samples-output", str(osps)])
        assert rc == 0
        assert osps.exists()

    def test_nonpositive_interval_rejected(self, tmp_path):
        rc = main(RUN_ARGS + ["--sample-interval", "0",
                              "-o", str(tmp_path / "x.prof")])
        assert rc == 2

    def test_sampling_incompatible_with_shards(self, tmp_path):
        rc = main(RUN_ARGS + ["--sample-interval", "0.0005",
                              "--shards", "2",
                              "-o", str(tmp_path / "x.prof")])
        assert rc == 2


@pytest.fixture
def server(tmp_path):
    clock = FakeClock()
    service = ProfileService(clock=clock,
                             warehouse=Warehouse(tmp_path / "wh"))
    srv = AsyncProfileServer(service)
    srv.test_clock = clock
    srv.serve_in_thread()
    yield srv
    srv.server_close()


class TestPushTopWatch:
    def endpoint(self, server):
        host, port = server.address
        return f"{host}:{port}"

    def test_push_samples_then_top_once(self, server, sampled_dump,
                                        capsys):
        osps = sampled_dump.with_name(sampled_dump.name + ".osps")
        endpoint = self.endpoint(server)
        assert main(["push", endpoint, "--samples", str(osps)]) == 0
        assert server.service.state_pushes == 1

        assert main(["top", endpoint, "--once", "--lines", "8"]) == 0
        frame = capsys.readouterr().out
        assert "WAIT_SITE" in frame
        assert "sem:i_sem:" in frame
        # Top shows at most the requested rows below the two headers.
        rows = [line for line in frame.splitlines()[2:] if line.strip()]
        assert len(rows) <= 8

    def test_top_once_with_empty_window(self, server, capsys):
        assert main(["top", self.endpoint(server), "--once"]) == 0
        assert "no state samples" in capsys.readouterr().out

    def test_top_rejects_bad_lines(self, server):
        assert main(["top", self.endpoint(server), "--once",
                     "--lines", "0"]) == 2

    def test_push_without_any_source_fails(self, server, capsys):
        assert main(["push", self.endpoint(server)]) == 2
        assert "--samples" in capsys.readouterr().err

    def test_watch_metrics_show_sampler_counters(self, server,
                                                 sampled_dump, capsys):
        osps = sampled_dump.with_name(sampled_dump.name + ".osps")
        endpoint = self.endpoint(server)
        assert main(["push", endpoint, "--samples", str(osps)]) == 0
        assert main(["watch", endpoint, "--once", "--metrics"]) == 0
        captured = capsys.readouterr()
        assert "osprof_state_pushes_total 1" in captured.out
        assert "osprof_samples_total" in captured.out
        assert "sampler:" in captured.err

    def test_sql_sample_relation_over_endpoint(self, server,
                                               sampled_dump, capsys):
        osps = sampled_dump.with_name(sampled_dump.name + ".osps")
        endpoint = self.endpoint(server)
        assert main(["push", endpoint, "--samples", str(osps)]) == 0
        # Samples commit when their segment closes.
        server.test_clock.advance(server.service.config.segment_seconds)
        rc = main(["db", "sql", "--endpoint", endpoint,
                   "SELECT state, wait_site, count() "
                   "GROUP BY state, wait_site "
                   "ORDER BY count() DESC LIMIT 3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "blocked" in out
