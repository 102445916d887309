"""End-to-end tests of the continuous profiling service.

The acceptance pair for the service tentpole:

* N concurrent ``push`` clients stream segments into one server; the
  store's merged profile is **byte-identical** (via ``to_bytes``) to a
  serial merge of the same inputs, and

* the §6.1 lock-contention signature is detectable **live**: after a
  baseline of single-process random-read segments, one contended
  (two-process) segment raises an alert naming ``llseek`` within one
  segment interval.
"""

import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.core.profileset import ProfileSet
from repro.service.client import ServiceClient
from repro.service.aio_server import AsyncProfileServer
from repro.service.server import ProfileService, ServiceConfig
from repro.workloads.runner import collect_profiles


class FakeClock:
    def __init__(self, start=0.0):
        self.now = start
        self._lock = threading.Lock()

    def __call__(self):
        with self._lock:
            return self.now

    def advance(self, dt):
        with self._lock:
            self.now += dt


@pytest.fixture
def server():
    clock = FakeClock()
    service = ProfileService(
        ServiceConfig(segment_seconds=30.0, retention=64,
                      baseline_segments=4, threshold=0.5, min_ops=50),
        clock=clock)
    srv = AsyncProfileServer(service)
    srv.test_clock = clock
    srv.serve_in_thread()
    yield srv
    srv.server_close()


def workload_segments(seed, count, processes=1):
    return [collect_profiles("randomread", processes=processes,
                             iterations=300, num_cpus=2,
                             seed=seed + i)
            for i in range(count)]


class TestConcurrentPushes:
    def test_merged_store_byte_identical_to_serial_merge(self, server):
        host, port = server.address
        streams = [workload_segments(seed=100, count=3),
                   workload_segments(seed=200, count=3)]
        errors = []

        def pusher(segments):
            try:
                with ServiceClient(host, port) as client:
                    for pset in segments:
                        client.push(pset)
            except Exception as exc:  # propagate into the test
                errors.append(exc)

        threads = [threading.Thread(target=pusher, args=(s,))
                   for s in streams]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert errors == []

        serial = ProfileSet.merged(
            [p for stream in streams for p in stream])
        with ServiceClient(host, port) as client:
            snapshot = client.snapshot()
        assert snapshot.to_bytes() == serial.to_bytes()
        assert snapshot.verify_checksums() == []

    def test_concurrent_pushes_across_rotations(self, server):
        host, port = server.address
        streams = [workload_segments(seed=300, count=4),
                   workload_segments(seed=400, count=4)]
        barrier = threading.Barrier(2)
        errors = []

        def pusher(segments):
            try:
                with ServiceClient(host, port) as client:
                    for pset in segments:
                        barrier.wait(timeout=60)
                        client.push(pset)
                        # Rotate between pushes: segments land in
                        # different store slots on each client.
                        server.test_clock.advance(17.0)
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=pusher, args=(s,))
                   for s in streams]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert errors == []

        serial = ProfileSet.merged(
            [p for stream in streams for p in stream])
        with ServiceClient(host, port) as client:
            assert client.snapshot().to_bytes() == serial.to_bytes()


class TestLiveLockContentionDetection:
    def test_contended_segment_alerts_naming_llseek(self, server):
        """The i_sem signature (§6.1) must be caught within one segment."""
        host, port = server.address
        with ServiceClient(host, port) as client:
            # Three quiet baseline segments: single-process random
            # reads — llseek is one uncontended peak.
            for i, pset in enumerate(workload_segments(seed=1, count=3)):
                client.push(pset)
                server.test_clock.advance(30.0)
            cursor, alerts = client.alerts(0)
            assert alerts == [], "baseline must not alert"

            # The injected pathology: a second process contends on the
            # inode semaphore; llseek grows a second (waiting) peak.
            contended = collect_profiles(
                "randomread", processes=2, iterations=300, num_cpus=2,
                seed=99)
            client.push(contended)
            server.test_clock.advance(30.0)  # close the contended segment
            cursor, alerts = client.alerts(cursor)

        affected = {a.operation for a in alerts}
        assert "llseek" in affected
        llseek_alert = next(a for a in alerts
                            if a.operation == "llseek")
        assert llseek_alert.kind == "new-peak"
        # One segment interval: the alert is attributed to the very
        # segment the contended push landed in (index 3).
        assert llseek_alert.segment == 3


class TestCliServePushWatch:
    def test_cli_round_trip(self, tmp_path):
        """osprof serve / push / watch wired together for real."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--port", "0", "--segment-seconds", "3600",
             "--min-ops", "50"],
            stderr=subprocess.PIPE, text=True)
        try:
            line = proc.stderr.readline()
            assert "listening on" in line
            endpoint = line.split("listening on ")[1].split()[0]

            from repro.cli import main
            dump = tmp_path / "seg.ospb"
            pset = collect_profiles("randomread", processes=1,
                                    iterations=200, seed=5)
            pset.save(str(dump), format="binary")
            assert main(["push", endpoint, str(dump)]) == 0
            assert main(["push", endpoint, "--workload", "randomread",
                         "--iterations", "200", "--seed", "6"]) == 0

            host, port = endpoint.rsplit(":", 1)
            with ServiceClient(host, int(port)) as client:
                metrics = client.metrics()
            assert "osprof_ingest_requests_total 2" in metrics

            assert main(["watch", endpoint, "--once"]) == 0
            assert main(["watch", endpoint, "--once", "--metrics"]) == 0
        finally:
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stderr.close()

    def test_push_requires_source(self, capsys):
        from repro.cli import main
        assert main(["push", "127.0.0.1:1"]) == 2


class TestCliServeStops:
    def test_sigterm_drains_and_flushes_with_sigint_ignored(self, tmp_path):
        """SIGTERM commits what it holds, even from a background job.

        A shell starts a background job with SIGINT ignored, so the
        server must stop on SIGTERM as on SIGINT: drain (cancelling the
        idle client left connected, and saying so), then commit the
        closed segment that ``--flush-batch 4`` still holds and the
        open segment.
        """
        from repro.warehouse import Warehouse
        db = tmp_path / "wh"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--db", str(db), "--flush-batch", "4",
             "--segment-seconds", "2", "--drain-timeout", "0.5"],
            stderr=subprocess.PIPE, text=True,
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN))
        try:
            line = proc.stderr.readline()
            assert "listening on" in line
            host, port = line.split("listening on ")[1].split()[0] \
                .rsplit(":", 1)
            first, second = (ProfileSet.from_operation_latencies(
                {"read": [100.0 * seed + i for i in range(30)]})
                for seed in (1, 2))
            with ServiceClient(host, int(port)) as client:
                client.push_sequenced("c1", 1, first.to_bytes())
                time.sleep(2.0)  # into the next segment
                client.push_sequenced("c1", 2, second.to_bytes())
                page = client.metrics()
                assert "osprof_warehouse_flush_pending 1\n" in page
                assert "osprof_warehouse_segments_total 0\n" in page
                proc.send_signal(signal.SIGTERM)
                assert proc.wait(timeout=30) == 0
            assert "cancelled 1 connection(s) still active" \
                in proc.stderr.read()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stderr.close()
        stored = Warehouse(str(db)).query("service")
        assert stored.to_bytes() == ProfileSet.merged(
            [first, second]).to_bytes()

