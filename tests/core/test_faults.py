"""Tests for the deterministic fault-injection plane."""

import pickle

import pytest

from repro.core.faults import (FAULT_KINDS, FAULT_SITES, FaultPlan,
                               FaultPoint, FaultySocket, InjectedFault,
                               corrupt_bytes)


class TestFaultPoint:
    def test_rejects_unknown_site(self):
        with pytest.raises(ValueError, match="site"):
            FaultPoint("nowhere", "crash")

    def test_rejects_kind_wrong_for_site(self):
        with pytest.raises(ValueError, match="not armable"):
            FaultPoint("client.send", "crash")

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            FaultPoint("shard.worker", "crash", probability=1.5)

    def test_rejects_negative_seconds(self):
        with pytest.raises(ValueError):
            FaultPoint("shard.worker", "hang", seconds=-1.0)

    def test_rejects_unknown_corruption_mode(self):
        with pytest.raises(ValueError, match="mode"):
            FaultPoint("shard.payload", "corrupt", mode="scramble")

    def test_every_site_kind_pair_constructs(self):
        for site, kinds in FAULT_SITES.items():
            for kind in kinds:
                point = FaultPoint(site, kind)
                assert point.kind in FAULT_KINDS

    def test_matches_site_key_and_attempt(self):
        point = FaultPoint("shard.worker", "crash", key="shard:1",
                           attempts=(0, 2))
        assert point.matches("shard.worker", "shard:1", 0)
        assert point.matches("shard.worker", "shard:1", 2)
        assert not point.matches("shard.worker", "shard:1", 1)
        assert not point.matches("shard.worker", "shard:0", 0)
        assert not point.matches("shard.payload", "shard:1", 0)

    def test_empty_attempts_matches_every_attempt(self):
        point = FaultPoint("shard.worker", "crash", attempts=())
        assert all(point.matches("shard.worker", None, n)
                   for n in range(10))

    def test_none_key_matches_any_key(self):
        point = FaultPoint("shard.worker", "crash")
        assert point.matches("shard.worker", "shard:7", 0)
        assert point.matches("shard.worker", None, 0)


class TestFaultPlan:
    def test_empty_plan_is_falsy_and_inert(self):
        plan = FaultPlan()
        assert not plan
        assert plan.point_at("shard.worker") is None
        assert plan.fire("shard.worker", data=b"x") == b"x"

    def test_crash_raises_injected_fault(self):
        plan = FaultPlan([FaultPoint("shard.worker", "crash")])
        with pytest.raises(InjectedFault) as info:
            plan.fire("shard.worker", key="shard:0", attempt=0)
        assert info.value.site == "shard.worker"
        assert info.value.attempt == 0

    def test_error_raises_oserror_subclass(self):
        plan = FaultPlan([FaultPoint("client.connect", "error")])
        with pytest.raises(ConnectionError):
            plan.fire("client.connect")

    def test_attempt_one_heals(self):
        plan = FaultPlan([FaultPoint("shard.worker", "crash",
                                     attempts=(0,))])
        with pytest.raises(InjectedFault):
            plan.fire("shard.worker", attempt=0)
        assert plan.fire("shard.worker", attempt=1, data=b"ok") == b"ok"

    def test_hang_and_delay_call_sleep(self):
        slept = []
        plan = FaultPlan([
            FaultPoint("shard.worker", "hang", key="h", seconds=9.0),
            FaultPoint("shard.worker", "delay", key="d", seconds=0.25),
        ])
        plan.fire("shard.worker", key="h", sleep=slept.append)
        plan.fire("shard.worker", key="d", sleep=slept.append)
        assert slept == [9.0, 0.25]

    def test_hang_default_is_an_hour(self):
        slept = []
        plan = FaultPlan([FaultPoint("shard.worker", "hang")])
        plan.fire("shard.worker", sleep=slept.append)
        assert slept == [3600.0]

    def test_corrupt_is_deterministic_per_plan_seed(self):
        data = bytes(range(64))
        plan = FaultPlan([FaultPoint("shard.payload", "corrupt")], seed=5)
        same = FaultPlan([FaultPoint("shard.payload", "corrupt")], seed=5)
        other = FaultPlan([FaultPoint("shard.payload", "corrupt")], seed=6)
        a = plan.fire("shard.payload", data=data)
        assert a != data
        assert a == same.fire("shard.payload", data=data)
        assert a != other.fire("shard.payload", data=data)

    def test_probability_gate_is_deterministic(self):
        plan = FaultPlan([FaultPoint("shard.worker", "crash",
                                     attempts=(), probability=0.5)],
                         seed=11)
        fired = [plan.point_at("shard.worker", attempt=n) is not None
                 for n in range(64)]
        again = [plan.point_at("shard.worker", attempt=n) is not None
                 for n in range(64)]
        assert fired == again
        assert any(fired) and not all(fired)

    def test_plan_pickles_across_process_boundaries(self):
        plan = FaultPlan([FaultPoint("shard.worker", "crash",
                                     key="shard:1")], seed=3)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan
        assert clone.point_at("shard.worker", key="shard:1") is not None

    def test_injected_fault_pickles_with_fields(self):
        fault = InjectedFault("shard.worker", "crash", "shard:2", 1)
        clone = pickle.loads(pickle.dumps(fault))
        assert isinstance(clone, InjectedFault)
        assert (clone.site, clone.kind, clone.key, clone.attempt) == \
            ("shard.worker", "crash", "shard:2", 1)


class TestCorruptBytes:
    def test_flip_damages_exactly_one_bit(self):
        data = bytes(64)
        damaged = corrupt_bytes(data, seed=9, mode="flip")
        assert len(damaged) == len(data)
        diff = [a ^ b for a, b in zip(data, damaged)]
        assert sum(bin(d).count("1") for d in diff) == 1

    def test_flip_is_seed_deterministic(self):
        data = bytes(range(32))
        assert corrupt_bytes(data, seed=4) == corrupt_bytes(data, seed=4)
        assert corrupt_bytes(data, seed=4) != corrupt_bytes(data, seed=5)

    def test_tail_flips_low_bit_of_last_byte(self):
        data = b"\x00" * 10
        damaged = corrupt_bytes(data, mode="tail")
        assert damaged[:-1] == data[:-1]
        assert damaged[-1] == 1

    def test_truncate_halves(self):
        assert corrupt_bytes(bytes(10), mode="truncate") == bytes(5)

    def test_empty_input_unchanged(self):
        assert corrupt_bytes(b"", mode="flip") == b""

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            corrupt_bytes(b"x", mode="nope")


class FakeSocket:
    def __init__(self):
        self.sent = []

    def sendall(self, data):
        self.sent.append(bytes(data))

    def recv(self, bufsize):
        return b"reply"

    def close(self):
        self.closed = True


class TestFaultySocket:
    def test_send_fault_fires_on_ordinal(self):
        plan = FaultPlan([FaultPoint("client.send", "error",
                                     attempts=(1,))])
        sock = FaultySocket(FakeSocket(), plan)
        sock.sendall(b"first")
        with pytest.raises(ConnectionError):
            sock.sendall(b"second")

    def test_send_corruption_reaches_the_wire(self):
        inner = FakeSocket()
        plan = FaultPlan([FaultPoint("client.send", "corrupt",
                                     mode="tail")], seed=2)
        sock = FaultySocket(inner, plan)
        sock.sendall(b"\x00\x00\x00\x00")
        assert inner.sent == [b"\x00\x00\x00\x01"]

    def test_recv_fault_fires_on_ordinal(self):
        plan = FaultPlan([FaultPoint("client.recv", "error",
                                     attempts=(0,))])
        sock = FaultySocket(FakeSocket(), plan)
        with pytest.raises(ConnectionError):
            sock.recv(16)
        assert sock.recv(16) == b"reply"

    def test_delegates_everything_else(self):
        sock = FaultySocket(FakeSocket(), FaultPlan())
        sock.close()
        assert sock._sock.closed

