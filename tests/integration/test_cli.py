"""Tests for the osprof command line."""

import pytest

from repro.cli import build_parser, main


@pytest.fixture
def dump_a(tmp_path):
    path = tmp_path / "a.prof"
    rc = main(["run", "grep", "--scale", "0.005", "--seed", "1",
               "-o", str(path)])
    assert rc == 0
    return str(path)


@pytest.fixture
def dump_b(tmp_path):
    path = tmp_path / "b.prof"
    rc = main(["run", "randomread", "--processes", "2",
               "--iterations", "100", "--seed", "2", "-o", str(path)])
    assert rc == 0
    return str(path)


class TestRun:
    def test_run_writes_parseable_dump(self, dump_a):
        from repro.core.profileset import ProfileSet
        with open(dump_a) as f:
            pset = ProfileSet.load(f)
        assert "readdir" in pset
        assert pset.total_ops() > 0

    def test_run_to_stdout(self, capsys):
        rc = main(["run", "zerobyte", "--processes", "1",
                   "--iterations", "50"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("# osprof 1")

    def test_run_layers_differ(self, tmp_path):
        user = tmp_path / "user.prof"
        driver = tmp_path / "driver.prof"
        main(["run", "grep", "--scale", "0.005", "--layer", "user",
              "-o", str(user)])
        main(["run", "grep", "--scale", "0.005", "--layer", "driver",
              "-o", str(driver)])
        assert "readdir" in user.read_text()
        assert "disk_read" in driver.read_text()

    def test_all_workloads_run(self, tmp_path):
        for workload in ("postmark", "clone"):
            rc = main(["run", workload, "--iterations", "50",
                       "-o", str(tmp_path / f"{workload}.prof")])
            assert rc == 0


class TestRender:
    def test_render_all(self, dump_a, capsys):
        assert main(["render", dump_a]) == 0
        out = capsys.readouterr().out
        assert "READDIR" in out
        assert "#" in out

    def test_render_single_op(self, dump_a, capsys):
        assert main(["render", dump_a, "--op", "read"]) == 0
        out = capsys.readouterr().out
        assert "READ" in out
        assert "READDIR" not in out

    def test_render_unknown_op_fails(self, dump_a, capsys):
        assert main(["render", dump_a, "--op", "bogus"]) == 1

    def test_render_top(self, dump_a, capsys):
        assert main(["render", dump_a, "--top", "1"]) == 0
        out = capsys.readouterr().out
        assert out.count("bucket = floor") == 1


class TestPeaksCompareGnuplot:
    def test_peaks_lists_buckets(self, dump_a, capsys):
        assert main(["peaks", dump_a]) == 0
        out = capsys.readouterr().out
        assert "buckets" in out

    def test_compare_flags_differences(self, dump_a, dump_b, capsys):
        assert main(["compare", dump_a, dump_b]) == 0
        out = capsys.readouterr().out
        assert "score=" in out

    def test_compare_identical_sets(self, dump_a, capsys):
        assert main(["compare", dump_a, dump_a]) == 0
        out = capsys.readouterr().out
        assert "no interesting differences" in out

    def test_compare_metric_choice(self, dump_a, dump_b, capsys):
        assert main(["compare", dump_a, dump_b, "--metric",
                     "chi_squared", "--limit", "1"]) == 0

    def test_gnuplot_output(self, dump_a, capsys):
        assert main(["gnuplot", dump_a]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# ")
        # data lines are "<bucket> <count>"
        data_lines = [l for l in out.splitlines()
                      if l and not l.startswith("#")]
        assert all(len(l.split()) == 2 for l in data_lines)


class TestShardedRun:
    def test_run_with_workers_writes_parseable_dump(self, tmp_path):
        from repro.core.profileset import ProfileSet
        path = tmp_path / "sharded.prof"
        rc = main(["run", "randomread", "--iterations", "100",
                   "--workers", "2", "--seed", "5", "-o", str(path)])
        assert rc == 0
        pset = ProfileSet.load_path(str(path))
        assert pset.total_ops() > 0
        assert not pset.verify_checksums()

    def test_same_seed_and_shards_is_deterministic(self, tmp_path):
        # Same seed + shard/worker count => byte-identical merged profile.
        paths = [tmp_path / "a.prof", tmp_path / "b.prof"]
        for path in paths:
            rc = main(["run", "zerobyte", "--iterations", "60",
                       "--workers", "2", "--seed", "9", "-o", str(path)])
            assert rc == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_workers_do_not_change_merged_profile(self, tmp_path):
        serial = tmp_path / "serial.prof"
        parallel = tmp_path / "parallel.prof"
        base = ["run", "randomread", "--iterations", "100", "--seed", "3",
                "--shards", "2"]
        assert main(base + ["--workers", "1", "-o", str(serial)]) == 0
        assert main(base + ["--workers", "2", "-o", str(parallel)]) == 0
        assert serial.read_bytes() == parallel.read_bytes()

    def test_binary_format_round_trips(self, tmp_path):
        from repro.core.profileset import ProfileSet
        binary = tmp_path / "p.ospb"
        text = tmp_path / "p.prof"
        common = ["run", "zerobyte", "--iterations", "50", "--seed", "4"]
        assert main(common + ["--format", "binary", "-o", str(binary)]) == 0
        assert main(common + ["--format", "text", "-o", str(text)]) == 0
        assert binary.read_bytes().startswith(b"OSPROFB1")
        from_binary = ProfileSet.load_path(str(binary))
        from_text = ProfileSet.load_path(str(text))
        assert from_binary == from_text

    def test_binary_to_stdout(self, capsysbinary):
        rc = main(["run", "zerobyte", "--iterations", "30",
                   "--format", "binary"])
        assert rc == 0
        out = capsysbinary.readouterr().out
        from repro.core.profileset import ProfileSet
        assert ProfileSet.from_bytes(out).total_ops() > 0


class TestMerge:
    def test_merge_two_dumps(self, tmp_path, dump_a):
        from repro.core.profileset import ProfileSet
        other = tmp_path / "other.prof"
        assert main(["run", "zerobyte", "--iterations", "40",
                     "-o", str(other)]) == 0
        merged_path = tmp_path / "merged.prof"
        assert main(["merge", dump_a, str(other),
                     "-o", str(merged_path)]) == 0
        merged = ProfileSet.load_path(str(merged_path))
        a = ProfileSet.load_path(dump_a)
        b = ProfileSet.load_path(str(other))
        assert merged.total_ops() == a.total_ops() + b.total_ops()

    def test_merge_mixed_text_and_binary(self, tmp_path):
        from repro.core.profileset import ProfileSet
        text = tmp_path / "t.prof"
        binary = tmp_path / "b.ospb"
        assert main(["run", "zerobyte", "--iterations", "30", "--seed",
                     "1", "-o", str(text)]) == 0
        assert main(["run", "zerobyte", "--iterations", "30", "--seed",
                     "2", "--format", "binary", "-o", str(binary)]) == 0
        out = tmp_path / "m.ospb"
        assert main(["merge", str(text), str(binary), "--format",
                     "binary", "-o", str(out)]) == 0
        assert ProfileSet.load_path(str(out))["read"].total_ops == 120

    def test_merge_of_shards_equals_single_run(self, tmp_path):
        # osprof merge over individually collected shard dumps must
        # reproduce what run --shards produces in one step.
        from repro.core.shard import plan_shards, run_shard
        one_step = tmp_path / "one.prof"
        assert main(["run", "zerobyte", "--iterations", "80",
                     "--shards", "2", "--seed", "6",
                     "-o", str(one_step)]) == 0
        shard_paths = []
        for task in plan_shards("zerobyte", shards=2, seed=6,
                                iterations=80):
            path = tmp_path / f"shard{task.index}.ospb"
            path.write_bytes(run_shard(task))
            shard_paths.append(str(path))
        merged = tmp_path / "merged.prof"
        assert main(["merge", *shard_paths, "-o", str(merged)]) == 0
        assert merged.read_bytes() == one_step.read_bytes()

    def test_merge_rejects_resolution_mismatch(self, tmp_path, capsys):
        from repro.core.buckets import BucketSpec
        from repro.core.profileset import ProfileSet
        a = ProfileSet(spec=BucketSpec(1))
        a.add("read", 10)
        b = ProfileSet(spec=BucketSpec(2))
        b.add("read", 10)
        pa, pb = tmp_path / "a.prof", tmp_path / "b.prof"
        a.save(str(pa))
        b.save(str(pb))
        assert main(["merge", str(pa), str(pb),
                     "-o", str(tmp_path / "out")]) == 1
        assert "resolution" in capsys.readouterr().err

    def test_merge_rejects_corrupt_input(self, tmp_path, capsys):
        bad = tmp_path / "bad.ospb"
        bad.write_bytes(b"OSPROFB1" + b"\x00" * 16)
        assert main(["merge", str(bad), "-o", str(tmp_path / "out")]) == 1
        assert "CRC mismatch" in capsys.readouterr().err

    def test_missing_dump_reports_cleanly(self, tmp_path, capsys):
        assert main(["render", str(tmp_path / "nope.prof")]) == 1
        assert "osprof: error:" in capsys.readouterr().err


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "bogus"])

    def test_unknown_format_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "grep", "--format", "xml"])

    def test_merge_requires_at_least_one_dump(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["merge"])


class TestResilienceFlags:
    def free_port(self):
        import socket
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            return sock.getsockname()[1]

    def test_run_accepts_healing_flags(self, tmp_path):
        path = tmp_path / "healed.prof"
        rc = main(["run", "zerobyte", "--iterations", "40",
                   "--shard-retries", "1", "--salvage",
                   "-o", str(path)])
        assert rc == 0
        assert path.exists()

    def test_run_spool_dir_spools_instead_of_writing(self, tmp_path,
                                                     capsys):
        spool_dir = tmp_path / "spool"
        rc = main(["run", "zerobyte", "--iterations", "40",
                   "--spool-dir", str(spool_dir)])
        assert rc == 0
        assert "spooled" in capsys.readouterr().err
        from repro.service.spool import Spool
        assert Spool(str(spool_dir)).pending() == [1]

    def test_push_spools_offline_and_exits_zero(self, tmp_path, dump_a,
                                                capsys):
        spool_dir = tmp_path / "spool"
        rc = main(["push", f"127.0.0.1:{self.free_port()}", dump_a,
                   "--retries", "0", "--spool-dir", str(spool_dir)])
        assert rc == 0
        err = capsys.readouterr().err
        assert "spooled" in err
        from repro.service.spool import Spool
        assert len(Spool(str(spool_dir))) == 1

    def test_push_without_spool_fails_loudly_offline(self, dump_a,
                                                     capsys):
        rc = main(["push", f"127.0.0.1:{self.free_port()}", dump_a,
                   "--retries", "0", "--backoff", "0.001"])
        assert rc == 1
        assert "unavailable" in capsys.readouterr().err

    def test_push_requires_some_source(self, capsys):
        rc = main(["push", "127.0.0.1:1"])
        assert rc == 2
        assert "give saved dumps" in capsys.readouterr().err

    def test_spool_only_drain_mode(self, tmp_path, capsys):
        from repro.service.aio_server import AsyncProfileServer
        from repro.service.server import ProfileService
        from repro.service.spool import Spool
        from repro.core.profileset import ProfileSet
        spool_dir = tmp_path / "spool"
        blob = ProfileSet.from_operation_latencies(
            {"read": [100.0] * 10}).to_bytes()
        Spool(str(spool_dir)).append(blob)
        server = AsyncProfileServer(ProfileService())
        server.serve_in_thread()
        try:
            host, port = server.address
            rc = main(["push", f"{host}:{port}",
                       "--spool-dir", str(spool_dir)])
            assert rc == 0
            assert "drained 1" in capsys.readouterr().err
            assert server.service.ingest_requests == 1
        finally:
            server.server_close()

    def test_serve_parser_accepts_hardening_flags(self):
        args = build_parser().parse_args(
            ["serve", "--read-timeout", "5", "--max-frame-mb", "1",
             "--max-pending", "2", "--drain-timeout", "0.5"])
        assert args.read_timeout == 5.0
        assert args.max_pending == 2

    @pytest.mark.parametrize("argv", [
        ["serve", "--port", "0", "--read-timeout", "0"],
        ["relay", "--upstream", "127.0.0.1:1", "--port", "0",
         "--read-timeout", "0"],
    ])
    def test_read_timeout_zero_is_one_clear_error(self, argv, tmp_path,
                                                  capsys):
        # Refused before anything listens: exit 1, one line.
        rc = main(argv + (["--dir", str(tmp_path)]
                          if argv[0] == "relay" else []))
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["osprof: error: read_timeout must be positive "
                       "and finite, got 0.0"]

    def test_watch_parser_accepts_reconnect_cap(self):
        args = build_parser().parse_args(
            ["watch", "127.0.0.1:7461", "--reconnect-cap", "1.5"])
        assert args.reconnect_cap == 1.5


class TestSampled:
    def test_sampled_ascii(self, capsys):
        rc = main(["sampled", "grep", "--scale", "0.01",
                   "--duration", "5", "--interval", "2.5",
                   "--op", "read"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "READ" in out
        assert "key:" in out

    def test_sampled_splot(self, capsys):
        rc = main(["sampled", "grep", "--scale", "0.01",
                   "--duration", "5", "--interval", "2.5",
                   "--op", "read", "--splot"])
        assert rc == 0
        out = capsys.readouterr().out
        data = [l for l in out.splitlines()
                if l and not l.startswith("#")]
        assert all(len(l.split()) == 3 for l in data)


class TestTrace:
    def test_slowest_request_spans_every_layer(self, capsys):
        rc = main(["trace", "--scenario", "spindle-randomread",
                   "--requests", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        blocks = [block.splitlines() for block in out.strip().split("\n\n")]
        assert len(blocks) == 2
        assert all(block[0].startswith("request #") for block in blocks)
        frames = {line.split()[0] for line in blocks[0][1:]}
        assert {"user:read", "filesystem:read",
                "driver:disk_read"} <= frames

    def test_limit_reports_dropped_events(self, capsys):
        rc = main(["trace", "--scenario", "spindle-randomread",
                   "--requests", "2", "--limit", "500"])
        assert rc == 0
        err = capsys.readouterr().err
        assert "past --limit 500)" in err
        assert err.startswith("(dropped ")


class TestCompareThreshold:
    @pytest.fixture
    def clean(self, tmp_path):
        path = tmp_path / "clean.ospb"
        assert main(["run", "randomread", "--processes", "1",
                     "--iterations", "200", "--seed", "7",
                     "--format", "binary", "-o", str(path)]) == 0
        return str(path)

    @pytest.fixture
    def contended(self, tmp_path):
        path = tmp_path / "contended.ospb"
        assert main(["run", "randomread", "--processes", "2",
                     "--iterations", "200", "--seed", "7",
                     "--format", "binary", "-o", str(path)]) == 0
        return str(path)

    def test_breach_exits_3(self, clean, contended, capsys):
        rc = main(["compare", clean, contended, "--threshold", "emd=0.5"])
        assert rc == 3
        out = capsys.readouterr().out
        assert "BREACH llseek" in out
        assert "gate: FAIL" in out

    def test_within_threshold_exits_0(self, clean, tmp_path, capsys):
        other = tmp_path / "other.ospb"
        main(["run", "randomread", "--processes", "1", "--iterations",
              "200", "--seed", "8", "--format", "binary",
              "-o", str(other)])
        rc = main(["compare", clean, str(other),
                   "--threshold", "emd=0.5"])
        assert rc == 0
        assert "gate: PASS" in capsys.readouterr().out

    def test_repeatable_thresholds(self, clean, contended):
        rc = main(["compare", clean, contended,
                   "--threshold", "emd=100", "--threshold",
                   "chi_squared=0.001"])
        assert rc == 3

    def test_bad_threshold_is_one_clear_error(self, clean, capsys):
        rc = main(["compare", clean, clean, "--threshold", "emd=lots"])
        assert rc == 1
        assert "osprof: error" in capsys.readouterr().err

    def test_without_threshold_still_exits_0(self, clean, contended):
        assert main(["compare", clean, contended]) == 0


class TestDbCli:
    @pytest.fixture
    def dumps(self, tmp_path):
        paths = []
        for seed in (1, 2):
            path = tmp_path / f"cap{seed}.ospb"
            assert main(["run", "randomread", "--processes", "1",
                         "--iterations", "150", "--seed", str(seed),
                         "--format", "binary", "-o", str(path)]) == 0
            paths.append(str(path))
        return paths

    @pytest.fixture
    def db(self, tmp_path):
        return str(tmp_path / "wh")

    def test_ingest_query_round_trip(self, db, dumps, tmp_path, capsys):
        assert main(["db", "ingest", "--db", db, "--source", "web"]
                    + dumps) == 0
        assert "epoch=0" in capsys.readouterr().err
        out = tmp_path / "q.ospb"
        assert main(["db", "query", "--db", db, "--source", "web",
                     "--format", "binary", "-o", str(out)]) == 0
        from repro.core.profileset import ProfileSet
        merged = ProfileSet.merged(
            [ProfileSet.load_path(p) for p in dumps])
        assert out.read_bytes() == merged.to_bytes()

    def test_query_range_and_op_filter(self, db, dumps, capsys):
        main(["db", "ingest", "--db", db, "--source", "web"] + dumps)
        assert main(["db", "query", "--db", db, "--source", "web",
                     "--op", "llseek", "--since", "0", "--until", "0"]) == 0
        out = capsys.readouterr().out
        assert "llseek" in out
        assert "op read" not in out

    def test_compact_and_gc(self, db, dumps, capsys):
        main(["db", "ingest", "--db", db, "--source", "web"] + dumps)
        # Ingest the same dumps repeatedly to age out the early epochs.
        for _ in range(5):
            main(["db", "ingest", "--db", db, "--source", "web"] + dumps)
        rc = main(["db", "compact", "--db", db, "--fanout", "2",
                   "--keep", "2,2"])
        assert rc == 0
        assert "compaction(s)" in capsys.readouterr().err
        rc = main(["db", "gc", "--db", db, "--fanout", "2",
                   "--keep", "2,2"])
        assert rc == 0
        assert "evicted" in capsys.readouterr().err

    def test_baseline_save_list_rm(self, db, dumps, capsys):
        main(["db", "ingest", "--db", db, "--source", "web"] + dumps)
        assert main(["db", "baseline", "save", "clean", "--db", db,
                     "--from", dumps[0]]) == 0
        assert main(["db", "baseline", "save", "hist", "--db", db,
                     "--source", "web"]) == 0
        capsys.readouterr()
        assert main(["db", "baseline", "list", "--db", db]) == 0
        assert capsys.readouterr().out.split() == ["clean", "hist"]
        assert main(["db", "baseline", "rm", "--db", db, "clean"]) == 0
        assert main(["db", "baseline", "rm", "--db", db, "clean"]) == 1

    def test_baseline_save_needs_exactly_one_input(self, db, dumps):
        assert main(["db", "baseline", "save", "x", "--db", db]) == 2
        assert main(["db", "baseline", "save", "x", "--db", db,
                     "--from", dumps[0], "--source", "web"]) == 2

    def test_gate_pass_and_breach(self, db, dumps, tmp_path, capsys):
        main(["db", "baseline", "save", "clean", "--db", db,
              "--from", dumps[0]])
        assert main(["db", "gate", dumps[1], "--db", db,
                     "--baseline", "clean"]) == 0
        contended = tmp_path / "contended.ospb"
        main(["run", "randomread", "--processes", "2", "--iterations",
              "150", "--seed", "1", "--format", "binary",
              "-o", str(contended)])
        capsys.readouterr()
        rc = main(["db", "gate", str(contended), "--db", db,
                   "--baseline", "clean"])
        assert rc == 3
        assert "BREACH llseek" in capsys.readouterr().out

    def test_gate_missing_baseline_is_one_clear_error(self, db, dumps,
                                                      capsys):
        rc = main(["db", "gate", dumps[0], "--db", db,
                   "--baseline", "ghost"])
        assert rc == 1
        assert "no baseline named" in capsys.readouterr().err

    def test_bad_keep_is_one_clear_error(self, db, capsys):
        rc = main(["db", "gc", "--db", db, "--keep", "a,b"])
        assert rc == 1
        assert "bad --keep" in capsys.readouterr().err

    def test_scrub_detect_repair_cycle(self, db, dumps, tmp_path, capsys):
        # The full operator workflow: clean scrub exits 0, a bit-flip
        # makes scrub exit 3, --repair from the mirror restores the
        # exact bytes, and the re-scrub exits 0 again.
        mirror = str(tmp_path / "mir")
        assert main(["db", "ingest", "--db", db, "--mirror", mirror,
                     "--source", "web"] + dumps) == 0
        assert main(["db", "scrub", "--db", db, "--mirror", mirror]) == 0
        from pathlib import Path
        victim = next((Path(db) / "segments").rglob("*.ospb"))
        data = bytearray(victim.read_bytes())
        data[10] ^= 0xFF
        victim.write_bytes(bytes(data))
        capsys.readouterr()
        assert main(["db", "scrub", "--db", db, "--mirror", mirror]) == 3
        assert "corrupt" in capsys.readouterr().err
        assert main(["db", "scrub", "--db", db, "--mirror", mirror,
                     "--repair"]) == 0
        assert main(["db", "scrub", "--db", db, "--mirror", mirror]) == 0

    def test_scrub_repair_needs_mirror(self, db, dumps, capsys):
        main(["db", "ingest", "--db", db, "--source", "web"] + dumps)
        capsys.readouterr()
        assert main(["db", "scrub", "--db", db, "--repair"]) == 2
        assert "--mirror" in capsys.readouterr().err
