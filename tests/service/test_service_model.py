"""A model of the live service, driven through its frame table.

A hypothesis state machine drives one :class:`ProfileService` through
the sans-IO :data:`FRAME_HANDLERS` (no sockets) on a :class:`FakeClock`,
with a real :class:`Warehouse` in a temporary directory.  Its rules push
latency profiles (``PUSH_SEQ``, replays of acked sequence numbers
included) and wait-state profiles (``STATE_PUSH``), step the clock,
tick, flush, run SQL, and restart the service on the same directory,
either gracefully (:meth:`ProfileService.close`) or by crashing.

The model is a plain record of the acked pushes, the segment each landed
in, and the epoch it committed at.  After every step the service must
agree with it byte for byte:

* ``SNAPSHOT`` is ``ProfileSet.merged`` of the latency pushes in the
  retained segments, and ``STATE_SNAPSHOT`` is ``StateProfile.merged``
  of the wait-state pushes in them;
* the warehouse query over every epoch is ``ProfileSet.merged`` of the
  committed latency pushes, and ``query_states(t0, t1)`` is
  ``StateProfile.merged`` of the wait-state pushes whose segment
  committed at an epoch in ``[t0, t1]``; both kinds of one segment
  share its epoch.
"""

import shutil
import tempfile

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.core.profileset import ProfileSet
from repro.sampling import StateProfile
from repro.service.protocol import (FrameType, decode_json, encode_json,
                                    encode_push_seq, encode_state_push)
from repro.service.server import (FRAME_HANDLERS, ProfileService,
                                  ServiceConfig)
from repro.warehouse import Warehouse

from ..clock import FakeClock

SOURCE = "service"
SEGMENT_SECONDS = 1.0
RETENTION = 3
FLUSH_BATCH = 2


def latency_profile(seed):
    # Latencies whose sums are not exactly representable, so merged
    # totals lean on the warehouse's rounding residuals.
    ops = {"read": [100.0 + 0.37 * seed + 0.1 * i for i in range(5)]}
    if seed % 2:
        ops["write"] = [1e6 / (seed + 7), 3.3 * (seed + 1)]
    return ProfileSet.from_operation_latencies(ops)


def state_profile(seed, interval=500.0):
    out = StateProfile(name=f"host-{seed}", interval=interval,
                       attributes={"seed": str(seed)})
    out.intervals = 2 + seed
    out.add("blocked", "filesystem", "llseek", "sem:i_sem:3", 30 + seed)
    out.add("running", "user", "-", "-", 4)
    if seed % 2:
        out.add("blocked", "filesystem", "read", "io:read", seed)
    return out


#: What the service receives is the decoded push: its totals are the
#: codec's one float64 each, so the model merges decoded profiles too.
LATENCY = [ProfileSet.from_bytes(latency_profile(seed).to_bytes())
           for seed in range(4)]
#: One push samples at another period, so some segments are mixed.
STATES = [state_profile(0), state_profile(1), state_profile(2),
          state_profile(3, interval=250.0)]
CONFIG = ServiceConfig(segment_seconds=SEGMENT_SECONDS,
                       retention=RETENTION, flush_batch=FLUSH_BATCH)


def handle(service, ftype, payload):
    return FRAME_HANDLERS[ftype].handle(service, payload)


class ServiceModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.root = tempfile.mkdtemp(prefix="osprof-model-")
        self.clock = FakeClock()
        #: ``(epoch, profile)`` of every committed push, both kinds.
        self.committed = []
        self.next_seq = {"a": 1, "b": 1}
        self._open_service()

    def teardown(self):
        shutil.rmtree(self.root, ignore_errors=True)

    # -- the model ------------------------------------------------------------

    def _open_service(self):
        epochs = [epoch for epoch, _ in self.committed]
        self.base = max(epochs) + 1 if epochs else 0
        self.service = ProfileService(CONFIG, clock=self.clock,
                                      warehouse=Warehouse(self.root),
                                      warehouse_source=SOURCE)
        assert self.service._epoch_base == self.base
        self.started = self.clock.now
        self.current = 0
        self.closed = []       # retained closed segment indices
        self.queue = []        # closed, non-empty, not yet committed
        self.segments = {0: []}  # index -> profiles pushed into it
        self.acked = {}        # (client, seq) -> payload, this run

    def _commit(self, indices):
        for index in indices:
            self.committed.extend((self.base + index, profile)
                                  for profile in self.segments[index])
        del indices[:]

    def _rotate(self):
        elapsed = self.clock.now - self.started
        target = int(elapsed // SEGMENT_SECONDS) if elapsed > 0 else 0
        if target <= self.current:
            return
        self.closed.append(self.current)
        if len(self.closed) > RETENTION:
            # Eviction forces the pending batch out first.
            self.closed.pop(0)
            self._commit(self.queue)
        if self.segments[self.current]:
            self.queue.append(self.current)
            if len(self.queue) >= FLUSH_BATCH:
                self._commit(self.queue)
        self.current = target
        self.segments[target] = []

    def _retained(self, kind):
        return [profile for index in self.closed + [self.current]
                for profile in self.segments[index]
                if isinstance(profile, kind)]

    # -- rules ----------------------------------------------------------------

    @rule(client=st.sampled_from(["a", "b"]),
          which=st.integers(0, len(LATENCY) - 1))
    def push_seq(self, client, which):
        seq = self.next_seq[client]
        self.next_seq[client] += 1
        payload = encode_push_seq(client, seq, LATENCY[which].to_bytes())
        rtype, reply = handle(self.service, FrameType.PUSH_SEQ, payload)
        assert rtype == FrameType.OK, reply
        assert reply.startswith(b"merged")
        self._rotate()
        self.segments[self.current].append(LATENCY[which])
        self.acked[(client, seq)] = payload

    @precondition(lambda self: self.acked)
    @rule(data=st.data())
    def replay(self, data):
        key = data.draw(st.sampled_from(sorted(self.acked)))
        rtype, reply = handle(self.service, FrameType.PUSH_SEQ,
                              self.acked[key])
        assert rtype == FrameType.OK, reply
        assert reply.startswith(b"duplicate")

    @rule(which=st.integers(0, len(STATES) - 1),
          overhead=st.integers(0, 1000))
    def state_push(self, which, overhead):
        payload = encode_state_push(overhead, STATES[which].to_bytes())
        rtype, reply = handle(self.service, FrameType.STATE_PUSH, payload)
        assert rtype == FrameType.OK, reply
        self._rotate()
        self.segments[self.current].append(STATES[which])

    @rule(seconds=st.sampled_from([0.25, 0.5, 1.0, 1.5, 4.0]))
    def step_clock(self, seconds):
        self.clock.advance(seconds)

    @rule()
    def tick(self):
        rtype, _ = handle(self.service, FrameType.ALERTS, b"")
        assert rtype == FrameType.ALERT_LOG
        self._rotate()

    @rule()
    def flush(self):
        self.service.flush()
        self._commit(self.queue)

    @rule()
    def sql(self):
        rtype, reply = handle(self.service, FrameType.SQL,
                              encode_json({"sql": "SELECT count()"}))
        assert rtype == FrameType.TABLE
        self._rotate()
        self._commit(self.queue)
        ops = sum(profile.total_ops() for _, profile in self.committed
                  if isinstance(profile, ProfileSet))
        assert decode_json(reply)["rows"] == [[ops]]

    @rule()
    def stop_and_reopen(self):
        self.service.close()
        self._commit(self.queue)
        self._commit([self.current])
        self._open_service()

    @rule()
    def crash_and_reopen(self):
        self._open_service()

    # -- invariants -----------------------------------------------------------

    @invariant()
    def snapshots_merge_the_retained_segments(self):
        _, snapshot = handle(self.service, FrameType.SNAPSHOT, b"")
        assert snapshot == ProfileSet.merged(
            self._retained(ProfileSet)).to_bytes()
        _, states = handle(self.service, FrameType.STATE_SNAPSHOT, b"")
        assert states == StateProfile.merged(
            self._retained(StateProfile), name="state-window").to_bytes()

    @invariant()
    def warehouse_holds_exactly_the_committed_pushes(self):
        warehouse = self.service.warehouse
        assert warehouse.query(SOURCE).to_bytes() == ProfileSet.merged(
            profile for _, profile in self.committed
            if isinstance(profile, ProfileSet)).to_bytes()
        epochs = sorted({epoch for epoch, _ in self.committed})
        ranges = [(None, None)] + [(epoch, epoch) for epoch in epochs]
        if len(epochs) > 2:
            ranges.append((epochs[1], epochs[-2]))
        for t0, t1 in ranges:
            want = StateProfile.merged(
                profile for epoch, profile in self.committed
                if isinstance(profile, StateProfile)
                and (t0 is None or t0 <= epoch)
                and (t1 is None or epoch <= t1))
            got = warehouse.query_states(SOURCE, t0, t1)
            assert got.to_bytes() == want.to_bytes(), (t0, t1)


ServiceModel.TestCase.settings = settings(
    max_examples=250, stateful_step_count=40, deadline=None,
    derandomize=True, suppress_health_check=[HealthCheck.too_slow])
TestServiceModel = ServiceModel.TestCase
