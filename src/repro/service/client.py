"""Collector-side clients of the continuous profiling service.

:class:`ServiceClient` speaks the :mod:`repro.service.protocol` framing
over one persistent TCP connection — the cheap, streaming path a
long-lived collector wants — and maps the reply frames back to Python
objects (status strings, :class:`~repro.core.profileset.ProfileSet`,
:class:`~repro.service.alerts.Alert`).  An ``ERROR`` frame raises
:class:`ServiceError`; a framing violation raises
:class:`~repro.service.protocol.ProtocolError`.

:class:`ResilientServiceClient` is the self-healing wrapper a
production collector should use: it classifies failures into retryable
and fatal (:func:`is_retryable`), reconnects with exponentially growing
full-jitter backoff (:class:`Backoff`), stamps every push with a client
id and monotonic sequence number so the server can deduplicate replays
(idempotent pushes over ``PUSH_SEQ``), honors the server's
``RETRY_AFTER`` backpressure replies, and — when given a spool
directory — buffers pushes in a crash-safe on-disk
:class:`~repro.service.spool.Spool` that drains on reconnect, so no
segment is ever lost while the server is down.  When every retry is
exhausted it raises a typed :class:`ServiceUnavailableError` with the
last attempt's cause chained.
"""

from __future__ import annotations

import os
import random
import socket
import time
import uuid
from typing import Callable, List, Optional, Tuple

from ..core.faults import FaultPlan, FaultySocket
from ..core.profileset import ProfileSet
from ..sampling.stateprofile import StateProfile
from .alerts import Alert
from .protocol import (FrameType, ProtocolError, decode_json,
                       decode_retry_after, encode_json, encode_push_seq,
                       encode_state_push, recv_frame, send_frame)
from .spool import Spool

__all__ = [
    "ServiceClient",
    "ServiceError",
    "ServiceUnavailableError",
    "RetryAfter",
    "Backoff",
    "ResilientServiceClient",
    "is_retryable",
    "parse_endpoint",
]


class ServiceError(ValueError):
    """The server answered with an ERROR frame (its message is carried)."""


class ServiceUnavailableError(ConnectionError):
    """The service stayed unreachable through every retry.

    Raised by :class:`ResilientServiceClient` after its attempt budget
    is spent; the last attempt's underlying failure is chained as
    ``__cause__`` so the real reason (refused, reset, timed out, server
    kept answering ``bad-payload``) is never lost.
    """


class RetryAfter(Exception):
    """The server asked the client to back off (``RETRY_AFTER`` reply).

    Not an error: the push was *not* ingested and should be resent
    after ``seconds``.  :class:`ResilientServiceClient` handles this
    internally; raw :class:`ServiceClient` users see it raised.
    """

    def __init__(self, seconds: float):
        super().__init__(f"server busy; retry after {seconds:g}s")
        self.seconds = seconds


def parse_endpoint(endpoint: str) -> Tuple[str, int]:
    """Parse ``host:port`` (the CLI's service address argument)."""
    host, sep, port = endpoint.rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"bad service endpoint {endpoint!r}; expected host:port")
    try:
        number = int(port)
    except ValueError:
        raise ValueError(
            f"bad service endpoint {endpoint!r}: port {port!r} is not "
            f"an integer") from None
    if not 1 <= number <= 65535:
        raise ValueError(
            f"bad service endpoint {endpoint!r}: port {number} is out of "
            f"range 1-65535")
    return host, number


def is_retryable(exc: BaseException) -> bool:
    """Classify a push/connect failure: worth retrying, or fatal?

    Retryable: the transport failed (``OSError`` — refused, reset,
    timed out, unreachable), the stream desynchronized
    (:class:`ProtocolError` — reconnecting resynchronizes it), the
    server shed load (:class:`RetryAfter`), or the server reported a
    payload damaged in transit (a :class:`ServiceError` whose message
    starts with ``bad-payload:`` — resending the pristine copy under
    the same sequence number is safe and correct).

    Fatal: name resolution failures (``socket.gaierror`` — a
    configuration error no retry fixes) and every other
    :class:`ServiceError` (the server *processed* the request and
    rejected it; resending the same thing changes nothing).
    """
    if isinstance(exc, RetryAfter):
        return True
    if isinstance(exc, ServiceError):
        return str(exc).startswith("bad-payload:")
    if isinstance(exc, socket.gaierror):
        return False
    if isinstance(exc, (OSError, ProtocolError)):
        return True
    return False


class Backoff:
    """Exponentially growing delays with full jitter.

    ``delay(attempt)`` draws uniformly from
    ``[0, min(cap, base * 2**attempt)]`` — the "full jitter" policy,
    which decorrelates a fleet of collectors all reconnecting to a
    server that just came back.  The RNG is injectable so tests (and
    deterministic deployments) reproduce schedules exactly.
    """

    def __init__(self, base: float = 0.05, cap: float = 2.0,
                 rng: Optional[random.Random] = None):
        if base <= 0:
            raise ValueError("backoff base must be positive")
        if cap < base:
            raise ValueError("backoff cap must be >= base")
        self.base = base
        self.cap = cap
        self._rng = rng if rng is not None else random.Random()

    def delay(self, attempt: int) -> float:
        return self._rng.uniform(
            0.0, min(self.cap, self.base * (2 ** max(attempt, 0))))


class ServiceClient:
    """One blocking connection to a profiling service or relay.

    Speaks the :mod:`repro.service.protocol` frames that
    :class:`~repro.service.aio_server.AsyncProfileServer` serves; every
    request is one frame out and one reply frame back.
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0,
                 sock: Optional[socket.socket] = None):
        if sock is not None:
            self._sock = sock
        else:
            self._sock = socket.create_connection((host, port),
                                                  timeout=timeout)
        self.close_error: Optional[OSError] = None

    # -- plumbing ----------------------------------------------------------

    def _roundtrip(self, ftype: int, payload: bytes,
                   expect: int) -> bytes:
        send_frame(self._sock, ftype, payload)
        frame = recv_frame(self._sock)
        if frame is None:
            raise ProtocolError("server closed the connection mid-request")
        rtype, rpayload = frame
        if rtype == FrameType.ERROR:
            raise ServiceError(rpayload.decode("utf-8", "replace"))
        if rtype == FrameType.RETRY_AFTER:
            raise RetryAfter(decode_retry_after(rpayload))
        if rtype != expect:
            raise ProtocolError(
                f"expected {FrameType.name(expect)} reply, got "
                f"{FrameType.name(rtype)}")
        return rpayload

    # -- requests ----------------------------------------------------------

    def push(self, pset: ProfileSet) -> str:
        """Stream one profile set to the server; returns its status line."""
        reply = self._roundtrip(FrameType.PUSH, pset.to_bytes(),
                                FrameType.OK)
        return reply.decode("utf-8", "replace")

    def push_payload(self, payload: bytes) -> str:
        """Push an already-encoded binary profile (e.g. a saved .ospb)."""
        reply = self._roundtrip(FrameType.PUSH, payload, FrameType.OK)
        return reply.decode("utf-8", "replace")

    def push_sequenced(self, client_id: str, seq: int,
                       payload: bytes) -> str:
        """Idempotent push: the server dedups on ``(client_id, seq)``.

        Resending the same sequence after an ambiguous failure is safe —
        a replay of an already-merged push is acknowledged without
        merging twice.  Raises :class:`RetryAfter` under backpressure.
        """
        reply = self._roundtrip(FrameType.PUSH_SEQ,
                                encode_push_seq(client_id, seq, payload),
                                FrameType.OK)
        return reply.decode("utf-8", "replace")

    def push_state(self, sprof: StateProfile,
                   overhead_ns: int = 0) -> str:
        """Push one wait-state sample profile; returns the status line.

        ``overhead_ns`` is the sampler's wall-clock capture cost, which
        rides beside the (deterministic) profile bytes so the server
        can accumulate ``osprof_sampler_overhead_ns_total``.
        """
        reply = self._roundtrip(
            FrameType.STATE_PUSH,
            encode_state_push(overhead_ns, sprof.to_bytes()),
            FrameType.OK)
        return reply.decode("utf-8", "replace")

    def state_snapshot(self) -> StateProfile:
        """The merged rolling state window, decoded and CRC-verified."""
        return StateProfile.from_bytes(
            self._roundtrip(FrameType.STATE_SNAPSHOT, b"",
                            FrameType.STATE_PROFILE))

    def metrics(self) -> str:
        """The server's plaintext metrics page."""
        return self._roundtrip(FrameType.METRICS, b"",
                               FrameType.TEXT).decode("utf-8", "replace")

    def snapshot(self) -> ProfileSet:
        """The merged rolling profile, decoded and CRC-verified."""
        return ProfileSet.from_bytes(
            self._roundtrip(FrameType.SNAPSHOT, b"", FrameType.PROFILE))

    def alerts(self, cursor: int = 0) -> Tuple[int, List[Alert]]:
        """Alerts at or after *cursor*; returns ``(next_cursor, alerts)``."""
        reply = decode_json(self._roundtrip(
            FrameType.ALERTS, encode_json({"cursor": cursor}),
            FrameType.ALERT_LOG))
        try:
            records = reply["alerts"]
            next_cursor = int(reply["cursor"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"bad alert log reply: {exc}") from None
        return next_cursor, [Alert.from_dict(r) for r in records]

    def sql(self, query: str) -> Tuple[List[str], List[List]]:
        """Run an ``osprof db sql`` query against the server's warehouse.

        Returns ``(columns, rows)``.  Query errors (bad syntax, unknown
        column, missing baseline, server started without ``--db``)
        arrive as :class:`ServiceError` with the server's message.
        """
        reply = decode_json(self._roundtrip(
            FrameType.SQL, encode_json({"sql": query}), FrameType.TABLE))
        try:
            return list(reply["columns"]), [list(r) for r in reply["rows"]]
        except (KeyError, TypeError) as exc:
            raise ProtocolError(f"bad sql reply: {exc}") from None

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Close the connection.

        A close-time ``OSError`` is recorded on :attr:`close_error`
        (inspectable, never silently discarded) rather than raised —
        by the time we are closing, the data either made it or the
        caller already saw the real failure.
        """
        try:
            self._sock.close()
        except OSError as exc:
            self.close_error = exc

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ResilientServiceClient:
    """A self-healing push client: backoff, idempotence, spooling.

    Every push is stamped ``(client_id, seq)`` and sent over
    ``PUSH_SEQ``; a connection that dies before the reply is answered
    by reconnecting (full-jitter backoff) and resending the *same*
    sequence, which the server's ledger deduplicates — so a push is
    merged exactly once no matter how many times the wire fails.

    With ``spool_dir`` set, pushes are written to the crash-safe
    on-disk :class:`~repro.service.spool.Spool` first and drained in
    order; a push while the server is down simply stays spooled (status
    ``"spooled seq N"``) instead of raising, and the next successful
    push — or an explicit :meth:`drain` — delivers the backlog with
    zero loss.  Without a spool, exhausting ``retries`` raises
    :class:`ServiceUnavailableError` with the last cause chained.

    ``rng`` and ``sleep`` are injectable for deterministic tests;
    ``fault_plan`` arms deliberate connect/send/recv failures
    (see :mod:`repro.core.faults`).
    """

    def __init__(self, host: str, port: int, *,
                 client_id: Optional[str] = None,
                 retries: int = 4,
                 backoff: Optional[Backoff] = None,
                 timeout: float = 30.0,
                 spool_dir: Optional[str] = None,
                 rng: Optional[random.Random] = None,
                 sleep: Callable[[float], None] = time.sleep,
                 fault_plan: Optional[FaultPlan] = None):
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.host = host
        self.port = port
        self.retries = retries
        self.timeout = timeout
        self._sleep = sleep
        self._backoff = backoff if backoff is not None else Backoff(rng=rng)
        self._plan = fault_plan
        # Shared across reconnects so armed send/recv ordinals are
        # lifetime-monotonic (a first-send fault fires once, not once
        # per connection — which would defeat healing).
        self._fault_counters = {"send": 0, "recv": 0}
        self._client: Optional[ServiceClient] = None
        self.spool = Spool(spool_dir, client_id=client_id) \
            if spool_dir is not None else None
        if self.spool is not None:
            self.client_id = self.spool.client_id
            self._seq = None  # spool owns the sequence numbers
        else:
            # The random suffix matters: sequence numbers restart at 1
            # for every spool-less client, so two clients sharing an
            # identity would wrongly dedup each other's pushes.
            self.client_id = client_id if client_id else (
                f"{socket.gethostname()}.{os.getpid()}."
                f"{uuid.uuid4().hex[:8]}")
            self._seq = 0
        # Health counters (exposed for tests and operator curiosity).
        self.reconnects = 0
        self.retries_performed = 0
        self.spooled = 0

    # -- connection management ---------------------------------------------

    def _connect_once(self, attempt: int) -> ServiceClient:
        if self._plan is not None:
            self._plan.fire("client.connect", attempt=attempt,
                            sleep=self._sleep)
        sock = socket.create_connection((self.host, self.port),
                                        timeout=self.timeout)
        if self._plan is not None:
            sock = FaultySocket(sock, self._plan, sleep=self._sleep,
                                counters=self._fault_counters)
        return ServiceClient(self.host, self.port, sock=sock)

    def _ensure_connected(self, attempt: int) -> ServiceClient:
        if self._client is None:
            self._client = self._connect_once(attempt)
            if attempt > 0 or self.reconnects or self.retries_performed:
                self.reconnects += 1
        return self._client

    def _drop_connection(self) -> None:
        if self._client is not None:
            self._client.close()
            self._client = None

    # -- the retry engine ---------------------------------------------------

    def _attempt_all(self, operation: Callable[[ServiceClient], str]) -> str:
        """Run *operation* against a live connection, healing as needed."""
        last: Optional[BaseException] = None
        for attempt in range(self.retries + 1):
            try:
                client = self._ensure_connected(attempt)
                return operation(client)
            except RetryAfter as exc:
                # Backpressure: not a failure, but it consumes an
                # attempt so a saturated server cannot pin us forever.
                last = exc
                self.retries_performed += 1
                self._sleep(exc.seconds)
            except (OSError, ProtocolError, ServiceError) as exc:
                if not is_retryable(exc):
                    raise
                last = exc
                self._drop_connection()
                self.retries_performed += 1
                if attempt < self.retries:
                    self._sleep(self._backoff.delay(attempt))
        raise ServiceUnavailableError(
            f"service {self.host}:{self.port} unavailable after "
            f"{self.retries + 1} attempt(s)") from last

    # -- pushes -------------------------------------------------------------

    def push(self, pset: ProfileSet) -> str:
        """Push one profile set, healing transport failures.

        Spool mode: the set is persisted first, then the whole backlog
        is drained; if the service is down the push stays spooled and
        the returned status says so (no exception, no loss).
        """
        return self.push_payload(pset.to_bytes())

    def push_payload(self, payload: bytes) -> str:
        if self.spool is None:
            assert self._seq is not None
            self._seq += 1
            return self._send_sequenced(self._seq, payload)
        seq = self.spool.append(payload)
        self.spooled += 1
        try:
            delivered = self.drain()
        except ServiceUnavailableError:
            return (f"spooled seq {seq} "
                    f"({len(self.spool)} pending; service unavailable)")
        return f"pushed seq {seq} (drained {delivered})"

    def drain(self) -> int:
        """Deliver every spooled payload in order; returns the count.

        Raises :class:`ServiceUnavailableError` (cause chained) if the
        service cannot be reached — whatever was not delivered stays
        spooled for the next call.
        """
        if self.spool is None:
            return 0
        return self.spool.drain(
            lambda seq, payload: self._send_sequenced(seq, payload))

    def _send_sequenced(self, seq: int, payload: bytes) -> str:
        return self._attempt_all(
            lambda client: client.push_sequenced(self.client_id, seq,
                                                 payload))

    def push_with_seq(self, seq: int, payload: bytes) -> str:
        """Push under an explicitly chosen sequence number.

        The relay's forwarding path owns its own durable sequence
        allocation (a crash must replay the *same* batch under the
        *same* number), so it bypasses the internal counter/spool and
        still gets the full healing loop: reconnect with backoff,
        ``RETRY_AFTER`` honor, and typed exhaustion.  Do not mix with
        :meth:`push` on one client — two sequence allocators sharing an
        identity would corrupt the server's dedup ledger.
        """
        return self._attempt_all(
            lambda client: client.push_sequenced(self.client_id, seq,
                                                 payload))

    def push_state(self, sprof: StateProfile,
                   overhead_ns: int = 0) -> str:
        """Push one wait-state profile, healing transport failures.

        State pushes are not sequenced: an ambiguous failure retried
        here may double-count samples server-side, which the sampled
        view tolerates (counts are a view, not a ledger).
        """
        return self._attempt_all(
            lambda client: client.push_state(sprof,
                                             overhead_ns=overhead_ns))

    # -- queries (same healing loop) ----------------------------------------

    def metrics(self) -> str:
        return self._attempt_all(lambda client: client.metrics())

    def snapshot(self) -> ProfileSet:
        payload: List[ProfileSet] = []

        def grab(client: ServiceClient) -> str:
            payload.append(client.snapshot())
            return ""
        self._attempt_all(grab)
        return payload[0]

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        self._drop_connection()

    def __enter__(self) -> "ResilientServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
