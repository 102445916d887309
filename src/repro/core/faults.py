"""Deterministic fault injection across the collection stack.

OSprof's pitch is that profiles survive hostile conditions: the method
chapters (Sections 4-6) compare profiles captured under contention,
preemption, and partial failure, which is only meaningful if the
*collector* keeps producing correct, checksummed profiles while the
world burns around it.  This module is the burn-the-world half of that
contract — a seed-driven fault plane that can be armed at named sites
throughout the stack:

================  ==============================  =======================
site              where it fires                  kinds
================  ==============================  =======================
``shard.worker``  inside a shard worker, before   crash, hang, delay
                  the workload runs
``shard.payload`` the encoded shard result bytes  corrupt
``client.connect``establishing the service TCP    error, delay
                  connection
``client.send``   every outbound frame write      error, corrupt, delay
``client.recv``   every inbound frame read        error, delay
``sink.consume``  an event sink inside the probe  error
                  pipeline
``warehouse.ingest``  between a warehouse segment crash
                  file landing and its log commit
``warehouse.compact`` between a merged super-     crash
                  segment landing and its log
                  commit / input deletion
``device.service``a simulated device servicing a  error
                  request (media error -> the
                  drive's transparent retry)
================  ==============================  =======================

Determinism is the design constraint: every injection decision is a
pure function of ``(plan seed, site, key, attempt)`` via
:func:`repro.sim.rng.derive_seed`, so a failing fault-matrix run
reproduces from its seed alone.  Plans and points are plain frozen
dataclasses, picklable across the shard engine's process boundary.

The healing counterparts live next to the sites: bounded same-seed
retries and salvage in :func:`repro.core.shard.collect_sharded`,
backoff / spooling / idempotent resend in
:class:`repro.service.client.ResilientServiceClient`, read timeouts and
backpressure in :mod:`repro.service.server`, sink isolation in
:class:`repro.core.pipeline.FanoutSink`, and write-ahead log replay in
:class:`repro.warehouse.Warehouse` (a crash between a segment file and
its log commit leaves an orphan file, never a half-committed segment).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Tuple

from ..sim.rng import derive_seed

__all__ = [
    "FAULT_SITES",
    "FAULT_KINDS",
    "InjectedFault",
    "FaultPoint",
    "FaultPlan",
    "corrupt_bytes",
    "FaultySocket",
    "FaultingSink",
]

#: Every armable site and the fault kinds that make sense there.
FAULT_SITES = {
    "shard.worker": frozenset({"crash", "hang", "delay"}),
    "shard.payload": frozenset({"corrupt"}),
    "client.connect": frozenset({"error", "delay"}),
    "client.send": frozenset({"error", "corrupt", "delay"}),
    "client.recv": frozenset({"error", "delay"}),
    "sink.consume": frozenset({"error"}),
    "warehouse.ingest": frozenset({"crash"}),
    "warehouse.compact": frozenset({"crash"}),
    # Fired inside the simulator, not the collection stack: a matching
    # point marks the in-service disk request as a media error, so the
    # engine's transparent-retry path runs under any device model.  The
    # key is "read"/"write"; the attempt number is the request's retry
    # count, so attempts=() drives a request to retry exhaustion.
    "device.service": frozenset({"error"}),
}

#: The union of kinds across all sites.
FAULT_KINDS = frozenset(kind for kinds in FAULT_SITES.values()
                        for kind in kinds)

#: Corruption modes for byte payloads (see :func:`corrupt_bytes`).
CORRUPT_MODES = ("flip", "tail", "truncate")


class InjectedFault(RuntimeError):
    """A deliberate crash fired by an armed :class:`FaultPoint`.

    Distinct from any organic failure so test assertions (and retry
    accounting) can tell injected damage from real bugs.
    """

    def __init__(self, site: str, kind: str, key: Optional[str],
                 attempt: int):
        super().__init__(
            f"injected {kind} fault at {site}"
            f"{f' [{key}]' if key else ''} (attempt {attempt})")
        self.site = site
        self.kind = kind
        self.key = key
        self.attempt = attempt

    def __reduce__(self):
        # Exceptions pickle as cls(*args); rebuild from the structured
        # fields so a crash fired inside a pool worker crosses the
        # process boundary intact.
        return (InjectedFault,
                (self.site, self.kind, self.key, self.attempt))


@dataclass(frozen=True)
class FaultPoint:
    """One armed fault: where, what, and when it fires.

    ``attempts`` selects which attempt numbers fire — ``(0,)`` (the
    default) breaks only the first try, which is how a test asserts that
    retry heals; ``()`` means *every* attempt, which is how a test
    drives retries to exhaustion.  ``probability`` below 1.0 gates each
    firing on a deterministic coin derived from the plan seed.
    """

    site: str
    kind: str
    key: Optional[str] = None          #: restrict to one instance, e.g. "shard:1"
    attempts: Tuple[int, ...] = (0,)   #: attempt numbers that fire; () = all
    probability: float = 1.0
    seconds: float = 0.0               #: hang/delay duration (hang default 3600)
    mode: str = "flip"                 #: corruption mode for 'corrupt' kinds

    def __post_init__(self):
        if self.site not in FAULT_SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; expected one of "
                f"{', '.join(sorted(FAULT_SITES))}")
        if self.kind not in FAULT_SITES[self.site]:
            raise ValueError(
                f"fault kind {self.kind!r} is not armable at {self.site!r} "
                f"(allowed: {', '.join(sorted(FAULT_SITES[self.site]))})")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be within [0, 1]")
        if self.seconds < 0:
            raise ValueError("seconds must be >= 0")
        if self.mode not in CORRUPT_MODES:
            raise ValueError(
                f"unknown corruption mode {self.mode!r}; expected one of "
                f"{', '.join(CORRUPT_MODES)}")

    def matches(self, site: str, key: Optional[str], attempt: int) -> bool:
        if site != self.site:
            return False
        if self.key is not None and key != self.key:
            return False
        if self.attempts and attempt not in self.attempts:
            return False
        return True


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic set of armed fault points.

    The plan is consulted (never mutated) at each site, so one plan
    value can cross process boundaries and every consumer reaches the
    same injection decisions.  ``seed`` drives both probability gates
    and corruption positions.
    """

    points: Tuple[FaultPoint, ...] = ()
    seed: int = 0

    def __init__(self, points: Iterable[FaultPoint] = (), seed: int = 0):
        object.__setattr__(self, "points", tuple(points))
        object.__setattr__(self, "seed", int(seed))

    def __bool__(self) -> bool:
        return bool(self.points)

    def wants(self, site: str) -> bool:
        """Cheap gate: is anything armed at *site* at all?"""
        return any(point.site == site for point in self.points)

    def point_at(self, site: str, key: Optional[str] = None,
                 attempt: int = 0) -> Optional[FaultPoint]:
        """The first armed point firing at ``(site, key, attempt)``."""
        for index, point in enumerate(self.points):
            if not point.matches(site, key, attempt):
                continue
            if point.probability >= 1.0:
                return point
            coin = random.Random(derive_seed(
                self.seed, f"{site}|{key}|{attempt}|{index}")).random()
            if coin < point.probability:
                return point
        return None

    def fire(self, site: str, key: Optional[str] = None, attempt: int = 0,
             data: Optional[bytes] = None,
             sleep: Callable[[float], None] = time.sleep,
             ) -> Optional[bytes]:
        """Maybe inject at a site; returns *data* (possibly corrupted).

        ``crash`` raises :class:`InjectedFault`; ``error`` raises a
        :class:`ConnectionError` (an ``OSError``, so the healing paths
        exercise their real environment-error handling); ``hang`` and
        ``delay`` sleep; ``corrupt`` returns damaged bytes.
        """
        point = self.point_at(site, key, attempt)
        if point is None:
            return data
        if point.kind == "crash":
            raise InjectedFault(site, point.kind, key, attempt)
        if point.kind == "error":
            raise ConnectionError(
                f"injected error fault at {site}"
                f"{f' [{key}]' if key else ''} (attempt {attempt})")
        if point.kind == "hang":
            sleep(point.seconds if point.seconds > 0 else 3600.0)
            return data
        if point.kind == "delay":
            sleep(point.seconds)
            return data
        # corrupt
        if data is None:
            return data
        return corrupt_bytes(
            data,
            seed=derive_seed(self.seed, f"{site}|{key}|{attempt}"),
            mode=point.mode)


def corrupt_bytes(data: bytes, seed: int = 0, mode: str = "flip") -> bytes:
    """Deterministically damage a byte payload.

    ``flip`` flips one bit at a seed-derived position (anywhere — the
    codec's CRC must catch it wherever it lands), ``tail`` flips the
    low bit of the last byte (damage guaranteed to land in a trailing
    checksum, not in framing fields), and ``truncate`` drops the second
    half.  Empty input is returned unchanged — there is nothing to
    damage.
    """
    if mode not in CORRUPT_MODES:
        raise ValueError(f"unknown corruption mode {mode!r}")
    if not data:
        return data
    if mode == "truncate":
        return data[:len(data) // 2]
    if mode == "tail":
        index = len(data) - 1
        bit = 0
    else:
        rng = random.Random(seed)
        index = rng.randrange(len(data))
        bit = rng.randrange(8)
    damaged = bytearray(data)
    damaged[index] ^= 1 << bit
    return bytes(damaged)


class FaultySocket:
    """A socket proxy that fires ``client.send``/``client.recv`` faults.

    Wraps a connected socket; every ``sendall`` consults the plan at
    ``client.send`` (attempt = send ordinal) and every ``recv`` at
    ``client.recv`` (attempt = recv ordinal), so ``attempts=(0,)``
    breaks exactly the first operation.  Pass a shared ``counters``
    dict to keep ordinals monotonic across reconnects — a healing
    client wraps each fresh socket, and without shared counters an
    ``attempts=(0,)`` fault would re-fire on the first operation of
    *every* connection and never heal.  Everything else is delegated,
    so the wrapper drops into :mod:`repro.service.protocol` unchanged.
    """

    def __init__(self, sock, plan: FaultPlan,
                 sleep: Callable[[float], None] = time.sleep,
                 counters: Optional[dict] = None):
        self._sock = sock
        self._plan = plan
        self._sleep = sleep
        self._counters = counters if counters is not None \
            else {"send": 0, "recv": 0}

    @property
    def sends(self) -> int:
        return self._counters["send"]

    def sendall(self, data: bytes) -> None:
        attempt = self._counters["send"]
        self._counters["send"] += 1
        data = self._plan.fire("client.send", attempt=attempt, data=data,
                               sleep=self._sleep)
        self._sock.sendall(data)

    def recv(self, bufsize: int) -> bytes:
        attempt = self._counters["recv"]
        self._counters["recv"] += 1
        self._plan.fire("client.recv", attempt=attempt, sleep=self._sleep)
        return self._sock.recv(bufsize)

    def __getattr__(self, name):
        return getattr(self._sock, name)


class FaultingSink:
    """An event sink that fires ``sink.consume`` faults, then forwards.

    Duck-types :class:`repro.core.pipeline.EventSink` (no import, to
    keep this module dependency-light).  ``inner`` is optional — a bare
    FaultingSink is simply a sink that raises on the armed attempts.
    """

    def __init__(self, plan: FaultPlan, inner=None,
                 key: Optional[str] = None):
        self._plan = plan
        self._inner = inner
        self._key = key
        self.consumes = 0

    def consume(self, layer: str, events) -> None:
        attempt = self.consumes
        self.consumes += 1
        point = self._plan.point_at("sink.consume", key=self._key,
                                    attempt=attempt)
        if point is not None:
            raise InjectedFault("sink.consume", point.kind, self._key,
                               attempt)
        if self._inner is not None:
            self._inner.consume(layer, events)

    def flush(self) -> None:
        if self._inner is not None:
            self._inner.flush()
