"""Tests for the /proc reporting interface."""

import pytest

from repro.core.procfs import PROC_ROOT, ProcFs
from repro.core.profiler import Profiler

from ..clock import FakeClock


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def procfs():
    return ProcFs()


def make_profiler(clock, samples=3):
    profiler = Profiler(name="fs", clock=clock)
    for _ in range(samples):
        with profiler.request("read"):
            clock.now += 1000
    return profiler


class TestRegistration:
    def test_register_returns_path(self, procfs, clock):
        path = procfs.register("fs", make_profiler(clock))
        assert path == f"{PROC_ROOT}/fs"
        assert procfs.ls() == [path]

    def test_duplicate_rejected(self, procfs, clock):
        procfs.register("fs", make_profiler(clock))
        with pytest.raises(ValueError):
            procfs.register("fs", make_profiler(clock))

    def test_bad_names_rejected(self, procfs, clock):
        with pytest.raises(ValueError):
            procfs.register("", make_profiler(clock))
        with pytest.raises(ValueError):
            procfs.register("a/b", make_profiler(clock))

    def test_unregister(self, procfs, clock):
        procfs.register("fs", make_profiler(clock))
        procfs.unregister("fs")
        assert procfs.ls() == []


class TestFileInterface:
    def test_read_returns_serialized_profiles(self, procfs, clock):
        path = procfs.register("fs", make_profiler(clock))
        text = procfs.read(path)
        assert text.startswith("# osprof 1")
        assert "op read" in text

    def test_snapshot_roundtrips(self, procfs, clock):
        path = procfs.register("fs", make_profiler(clock))
        snap = procfs.snapshot(path)
        assert snap["read"].total_ops == 3

    def test_snapshot_is_point_in_time(self, procfs, clock):
        profiler = make_profiler(clock)
        path = procfs.register("fs", profiler)
        snap = procfs.snapshot(path)
        with profiler.request("read"):
            clock.now += 1
        assert snap["read"].total_ops == 3
        assert procfs.snapshot(path)["read"].total_ops == 4

    def test_missing_path(self, procfs):
        with pytest.raises(FileNotFoundError):
            procfs.read(f"{PROC_ROOT}/nope")
        with pytest.raises(FileNotFoundError):
            procfs.read("/etc/passwd")

    def test_write_reset_clears(self, procfs, clock):
        profiler = make_profiler(clock)
        path = procfs.register("fs", profiler)
        procfs.write(path, "reset\n")
        assert procfs.snapshot(path).total_ops() == 0

    def test_write_enable_disable(self, procfs, clock):
        profiler = make_profiler(clock)
        path = procfs.register("fs", profiler)
        procfs.write(path, "disable")
        with profiler.request("read"):
            clock.now += 1
        assert procfs.snapshot(path)["read"].total_ops == 3
        procfs.write(path, "enable")
        with profiler.request("read"):
            clock.now += 1
        assert procfs.snapshot(path)["read"].total_ops == 4

    def test_unknown_command_rejected(self, procfs, clock):
        path = procfs.register("fs", make_profiler(clock))
        with pytest.raises(ValueError):
            procfs.write(path, "explode")


class TestSimulatedLayerControl:
    """enable/disable reaches the probes of a simulated machine."""

    def test_disable_stops_a_simulated_layer(self):
        from repro.system import System
        from repro.workloads.microbench import zero_byte_read_body

        system = System.build(with_timer=False)
        inode = system.tree.mkfile(system.root, "empty", 0)

        def phase(iterations=100):
            proc = system.kernel.spawn(
                lambda p: zero_byte_read_body(system, p, inode, iterations),
                "zbr")
            system.run([proc])

        def ops(layer):
            return system.procfs.snapshot(f"{PROC_ROOT}/{layer}").total_ops()

        phase()
        fs_ops, user_ops = ops("fs"), ops("user")
        assert fs_ops > 0 and user_ops == 100
        system.procfs.write(f"{PROC_ROOT}/fs", "disable")
        phase()
        assert ops("fs") == fs_ops
        assert ops("user") == 200
        system.procfs.write(f"{PROC_ROOT}/fs", "enable")
        phase()
        assert ops("fs") == 2 * fs_ops
        assert ops("user") == 300
