"""The aggregation tree: leaf relays between collectors and the root.

One event-loop server (:mod:`repro.service.aio_server`) absorbs
thousands of pushers, but a planet-sized fleet still cannot point every
collector at one socket.  ``osprof relay`` is the middle of the tree
Atys-style continuous profiling needs: a **leaf relay** accepts pushes
from many clients exactly like a real server (same wire protocol, same
idempotent ``(client_id, seq)`` dedup, same backpressure), but instead
of keeping a rolling store it spools the accepted segments on disk,
merges them canonically in deterministic batches, and forwards **one**
merged, idempotent stream to its upstream — another relay, or the root
service.  Because profile merging is associative and canonical
(``ProfileSet.merged``), the root's merged contents are byte-identical
to a flat merge of every client's raw segments, no matter how the tree
batched them.

Crash safety is spool-first, everywhere:

* an accepted push is on disk (atomic rename) **before** it is acked,
  framed as its original ``PUSH_SEQ`` payload so identity survives;
* forwarding follows a write-ahead marker protocol in
  :class:`RelayState` (one atomically-replaced JSON file): a batch is
  chosen and persisted as *in-flight* (its upper spool sequence and
  its upstream sequence number) **before** the upstream push, so a
  relay that dies mid-forward replays exactly the same batch under
  exactly the same sequence and the upstream ledger absorbs the
  duplicate — merged exactly once, end to end;
* spool entries are deleted only after their batch's commit record
  landed, and leftovers below the committed watermark are purged on
  restart.

The downstream dedup ledger survives restarts the same way: high-water
marks of *forwarded* entries are folded into the state file at batch
commit, and marks of still-spooled entries are rebuilt by scanning the
spool — so no acked push is ever double-merged, even across a crash.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import List, Optional, Tuple

from ..core import durable
from ..core.faults import FaultPlan
from ..core.profileset import ProfileSet, parse_binary
from .aio_server import AsyncProfileServer
from .client import Backoff, ResilientServiceClient
from .protocol import FrameType, decode_push_seq, encode_push_seq
from .server import FrameHandler, Reply, ServiceConfig, bad_payload
from .spool import Spool
from .store import PushLedger

__all__ = ["NOT_RELAYED", "RelayState", "RelayService", "RelayServer"]

_STATE_FILE = "relay-state.json"
#: Client id recorded for plain (unsequenced) ``PUSH`` entries; they
#: carry no idempotence contract, so they never enter the ledger.
_ANON = "-"

#: Root-only frames a relay answers with ``unsupported frame type``: it
#: keeps no warehouse to query and no wait-state window, and forwarding
#: the sampled family would need a spool format of its own.
NOT_RELAYED = (FrameType.SQL, FrameType.STATE_PUSH,
               FrameType.STATE_SNAPSHOT)


class RelayState:
    """The relay's durable forwarding state (one atomic JSON file).

    ``forwarded`` is the spool watermark: every entry at or below it
    has been committed upstream and may be (or already was) deleted.
    ``up_seq`` is the last upstream sequence number this relay used.
    ``inflight`` is the write-ahead record of the batch currently (or
    last) being pushed: ``(upper, seq)``.  ``ledger`` holds downstream
    high-water marks of entries that no longer sit in the spool.
    """

    def __init__(self, root):
        self.path = Path(root) / _STATE_FILE
        self.relay_id: str = ""
        self.forwarded = 0
        self.up_seq = 0
        self.inflight: Optional[Tuple[int, int]] = None  # (upper, seq)
        self.ledger: dict = {}
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        try:
            raw = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(
                f"corrupt relay state {self.path}: {exc}") from None
        self.relay_id = str(raw.get("relay_id", ""))
        self.forwarded = int(raw.get("forwarded", 0))
        self.up_seq = int(raw.get("up_seq", 0))
        inflight = raw.get("inflight")
        self.inflight = (int(inflight[0]), int(inflight[1])) \
            if inflight else None
        self.ledger = {str(k): int(v)
                       for k, v in raw.get("ledger", {}).items()}

    def save(self) -> None:
        """Persist durably (fsync + rename + dir fsync) at WAL points."""
        blob = json.dumps({
            "relay_id": self.relay_id,
            "forwarded": self.forwarded,
            "up_seq": self.up_seq,
            "inflight": list(self.inflight) if self.inflight else None,
            "ledger": self.ledger,
        }, sort_keys=True).encode("utf-8")
        durable.write_atomic(self.path, blob)


class RelayService:
    """Accept, dedup, spool, merge, forward — the relay's brain.

    Transport-agnostic like :class:`~repro.service.server.ProfileService`:
    :class:`RelayServer` serves it over the same event loop, which
    applies the hardening knobs of ``config`` (ingest slots, frame
    guard, read timeouts) and counts their use itself.  ``upstream`` is
    ``(host, port)``; ``batch`` caps how many spooled entries one
    upstream push carries.

    ``fault_plan`` arms the leaf→root hop's ``client.connect`` /
    ``client.send`` / ``client.recv`` fault sites — the forwarding
    client is a full :class:`ResilientServiceClient`, so the healing
    story upstream is the same one collectors get downstream.
    """

    def __init__(self, root, upstream: Tuple[str, int],
                 config: Optional[ServiceConfig] = None,
                 batch: int = 64,
                 relay_id: Optional[str] = None,
                 retries: int = 4,
                 backoff: Optional[Backoff] = None,
                 timeout: float = 30.0,
                 sleep=time.sleep,
                 fault_plan: Optional[FaultPlan] = None):
        if batch < 1:
            raise ValueError("relay batch must be >= 1")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.upstream = upstream
        self.config = config if config is not None else ServiceConfig()
        self.batch = batch
        self.spool = Spool(self.root / "spool")
        self.state = RelayState(self.root)
        if relay_id:
            self.state.relay_id = relay_id
        elif not self.state.relay_id:
            # Reuse the spool's persisted identity: stable across
            # restarts, unique across relays.
            self.state.relay_id = f"relay-{self.spool.client_id}"
        self.state.save()
        self._retries = retries
        self._backoff = backoff
        self._timeout = timeout
        self._sleep = sleep
        self._plan = fault_plan
        self._upstream_client: Optional[ResilientServiceClient] = None
        # Accepts happen on the serving thread, forwards on another;
        # the lock guards the ledger and counters, the forward lock
        # serializes whole forwarding rounds.
        self._lock = threading.Lock()
        self._forward_lock = threading.Lock()
        self.ledger = PushLedger()
        self.ledger.update_from(self.state.ledger)
        self._rebuild_from_spool()
        # Counters (guarded by _lock).
        self.accepted = 0
        self.accepted_bytes = 0
        self.accepted_ops = 0
        self.duplicates = 0
        self.rejected = 0
        self.forwarded_entries = 0
        self.forwarded_batches = 0
        self.forward_errors = 0

    @property
    def relay_id(self) -> str:
        return self.state.relay_id

    def _rebuild_from_spool(self) -> None:
        # Entries at or below the committed watermark are leftovers of
        # a crash between batch commit and deletion: purge them.  The
        # rest re-seed the dedup ledger (their acks may never have
        # reached the client, so replays must be recognized).
        for seq in self.spool.pending():
            if seq <= self.state.forwarded:
                self.spool.remove(seq)
                continue
            try:
                client_id, client_seq, _ = decode_push_seq(
                    self.spool.payload(seq))
            except ValueError:
                continue
            if client_id != _ANON:
                self.ledger.record(client_id, client_seq)

    # -- the accept path (called by the transport) --------------------------

    def accept_sequenced(self, client_id: str, seq: int,
                         payload: bytes) -> Tuple[str, bool]:
        """Idempotent accept: validate, dedup, spool, ack.

        Raises :class:`ValueError` on a payload that does not decode
        (the transport reports it as ``bad-payload:`` so the client
        resends the pristine copy under the same sequence).  The spool
        write lands before the ack, so an accepted push survives a
        relay crash; the ledger entry is rebuilt from the spool on
        restart, so the ack's loss cannot double-merge either.
        """
        ops, operations = self._decode(payload)  # ValueError -> bad-payload
        with self._lock:
            if not self.ledger.is_new(client_id, seq):
                self.duplicates += 1
                return (f"duplicate of push seq {seq}; already relayed",
                        False)
            self.spool.append(encode_push_seq(client_id, seq, payload))
            self.ledger.record(client_id, seq)
            self.accepted += 1
            self.accepted_bytes += len(payload)
            self.accepted_ops += ops
        return (f"relayed {ops} ops over {operations} "
                f"operations (seq {seq})", True)

    def accept_payload(self, payload: bytes) -> Tuple[int, int]:
        """Accept one plain (unsequenced) push; no dedup contract.

        Returns ``(ops, operations)`` of the accepted profile.
        """
        ops, operations = self._decode(payload)
        with self._lock:
            # Anonymous entries carry no idempotence contract; the
            # constant seq is a placeholder that never touches a ledger.
            self.spool.append(encode_push_seq(_ANON, 1, payload))
            self.accepted += 1
            self.accepted_bytes += len(payload)
            self.accepted_ops += ops
        return ops, operations

    def _decode(self, payload: bytes) -> Tuple[int, int]:
        """Validate one pushed profile: its ``(ops, operations)``.

        The payload is checked by the binary decoder and only its rows
        are read.  One that does not decode, or that the root would
        refuse for its resolution, is counted and raises.
        """
        try:
            _crc, spec, _name, _attributes, rows = parse_binary(payload)
            if spec.resolution != self.config.resolution:
                raise ValueError(
                    f"pushed profile resolution {spec.resolution} "
                    f"differs from the relay's {self.config.resolution}")
        except ValueError:
            with self._lock:
                self.rejected += 1
            raise
        return sum(row[2] for row in rows), len(rows)

    # -- forwarding ----------------------------------------------------------

    def pending_entries(self) -> List[int]:
        """Spool sequences accepted but not yet committed upstream."""
        return [seq for seq in self.spool.pending()
                if seq > self.state.forwarded]

    def _client(self) -> ResilientServiceClient:
        if self._upstream_client is None:
            host, port = self.upstream
            self._upstream_client = ResilientServiceClient(
                host, port, client_id=self.relay_id,
                retries=self._retries, backoff=self._backoff,
                timeout=self._timeout, sleep=self._sleep,
                fault_plan=self._plan)
        return self._upstream_client

    def _load_entry(self, seq: int) -> Optional[Tuple[str, int, ProfileSet]]:
        """Decode one spooled entry, quarantining at-rest damage.

        A spool file that no longer decodes (bit rot, torn write that
        survived a crash) must not wedge the forwarder in a permanent
        retry loop: it is moved aside as ``.corrupt`` (kept for
        forensics, counted by ``osprof_spool_corrupt_total``) and the
        batch proceeds without it — delayed or quarantined, never
        silently wrong.
        """
        try:
            client_id, client_seq, profile = decode_push_seq(
                self.spool.payload(seq))
            return client_id, client_seq, ProfileSet.from_bytes(profile)
        except (OSError, ValueError):
            self.spool.quarantine(seq)
            return None

    def _merge_batch(self, entries: List[int]) -> ProfileSet:
        loaded = filter(None, (self._load_entry(seq) for seq in entries))
        return ProfileSet.merged([pset for _, _, pset in loaded])

    def forward(self) -> int:
        """Push every complete-able batch upstream; returns entries sent.

        One round: (re)establish the in-flight marker, merge the
        marked batch canonically, push it under its write-ahead
        sequence number, commit (fold ledger marks, advance the
        watermark), delete the entries — then repeat until the spool
        has nothing older than the watermark.  Raises
        :class:`~repro.service.client.ServiceUnavailableError` when the
        upstream stays unreachable; everything undelivered stays
        spooled and the marker makes the retry idempotent.
        """
        with self._forward_lock:
            total = 0
            while True:
                state = self.state
                if state.inflight is None:
                    pending = self.pending_entries()
                    if not pending:
                        break
                    chosen = pending[:self.batch]
                    # Write-ahead: the batch's composition (everything
                    # in (forwarded, upper]) and its upstream sequence
                    # are durable before the push, so a crash replays
                    # this exact batch under this exact number.
                    state.inflight = (chosen[-1], state.up_seq + 1)
                    state.save()
                upper, up_seq = state.inflight
                entries = [seq for seq in self.spool.pending()
                           if state.forwarded < seq <= upper]
                # Decode once: a damaged entry is quarantined here and
                # drops out of the batch (and of the ledger fold below),
                # so at-rest corruption delays one entry, not the tree.
                loaded = [(seq, entry) for seq in entries
                          for entry in [self._load_entry(seq)]
                          if entry is not None]
                if loaded:
                    merged = ProfileSet.merged(
                        [pset for _, (_, _, pset) in loaded])
                    try:
                        self._client().push_with_seq(up_seq,
                                                     merged.to_bytes())
                    except Exception:
                        with self._lock:
                            self.forward_errors += 1
                        self._drop_client()
                        raise
                # Commit: fold the batch's downstream marks into the
                # durable ledger (their spool entries are about to go),
                # advance the watermark, clear the marker — atomically.
                for _, (client_id, client_seq, _) in loaded:
                    if client_id != _ANON and \
                            client_seq > state.ledger.get(client_id, 0):
                        state.ledger[client_id] = client_seq
                state.forwarded = upper
                state.up_seq = up_seq
                state.inflight = None
                state.save()
                for seq, _ in loaded:
                    self.spool.remove(seq)
                with self._lock:
                    self.forwarded_entries += len(loaded)
                    self.forwarded_batches += 1
                total += len(loaded)
            return total

    def _drop_client(self) -> None:
        if self._upstream_client is not None:
            self._upstream_client.close()
            self._upstream_client = None

    def close(self) -> None:
        self._drop_client()

    # -- queries (same dispatch surface as ProfileService) -------------------

    def tick(self) -> list:
        return []

    def snapshot(self) -> ProfileSet:
        """Canonical merge of everything accepted but not yet forwarded."""
        with self._forward_lock:
            return self._merge_batch(self.pending_entries())

    def alerts_since(self, cursor: int):
        # Relays do not analyze; watch the root instead.
        return cursor, []

    def metrics_text(self) -> str:
        with self._lock:
            lines = [
                "# OSprof profile relay",
                f"osprof_relay_upstream "
                f"{self.upstream[0]}:{self.upstream[1]}",
                f"osprof_relay_batch {self.batch}",
                f"osprof_relay_accepted_total {self.accepted}",
                f"osprof_relay_accepted_bytes_total {self.accepted_bytes}",
                f"osprof_relay_accepted_ops_total {self.accepted_ops}",
                f"osprof_relay_duplicates_total {self.duplicates}",
                f"osprof_relay_rejected_total {self.rejected}",
                f"osprof_relay_spool_pending {len(self.pending_entries())}",
                f"osprof_relay_forwarded_entries_total "
                f"{self.forwarded_entries}",
                f"osprof_relay_forwarded_batches_total "
                f"{self.forwarded_batches}",
                f"osprof_relay_forward_errors_total {self.forward_errors}",
                f"osprof_spool_corrupt_total {self.spool.corrupted}",
                f"osprof_relay_upstream_seq {self.state.up_seq}",
                f"osprof_relay_clients {len(self.ledger)}",
            ]
            return "\n".join(lines) + "\n"


class RelayServer(AsyncProfileServer):
    """Event-loop front end for a :class:`RelayService`.

    Reuses the entire asyncio transport (read timeouts, header-only
    frame guard, bounded-slot backpressure, drain) and the root's frame
    table, overriding only ``PUSH``/``PUSH_SEQ``: pushes are
    spooled-and-acked instead of merged into a store, and the frames
    in :data:`NOT_RELAYED` are refused.  A **forwarder thread** ships
    complete batches upstream off the event loop (the one blocking hop
    a leaf has).  With ``flush_interval`` set, partial batches are
    flushed on that cadence too, so a trickle of collectors still
    reaches the root.
    """

    def __init__(self, relay: RelayService, host: str = "127.0.0.1",
                 port: int = 0, flush_interval: Optional[float] = 1.0):
        super().__init__(service=relay, host=host, port=port)
        self.relay = relay
        # The root's frame table, with pushes spooled instead of merged.
        for ftype in NOT_RELAYED:
            del self.handlers[ftype]
        self.handlers[FrameType.PUSH] = FrameHandler(self._push, gated=True)
        self.handlers[FrameType.PUSH_SEQ] = FrameHandler(self._push_seq,
                                                         gated=True)
        self.flush_interval = flush_interval
        self._forward_wake = threading.Event()
        self._forward_stop = threading.Event()
        self._forwarder: Optional[threading.Thread] = None

    # -- forwarder thread ----------------------------------------------------

    def _forward_loop(self) -> None:
        while not self._forward_stop.is_set():
            self._forward_wake.wait(timeout=self.flush_interval)
            self._forward_wake.clear()
            if self._forward_stop.is_set():
                break
            try:
                self.relay.forward()
            except Exception:
                # Upstream unreachable (or still faulted): everything
                # stays spooled; the next wake retries. Counted by the
                # relay's forward_errors.
                continue

    def serve_in_thread(self) -> threading.Thread:
        thread = super().serve_in_thread()
        if self.flush_interval is not None and self._forwarder is None:
            self._forwarder = threading.Thread(
                target=self._forward_loop, name="osprof-relay-forward",
                daemon=True)
            self._forwarder.start()
        return thread

    def signal_forward(self) -> None:
        """Wake the forwarder (a batch may be complete)."""
        self._forward_wake.set()

    def drain(self, timeout: float = 5.0) -> bool:
        """Transport drain, then a final forward of everything spooled.

        Raises nothing on an unreachable upstream — the spool keeps the
        data and the return value only reports the transport's drain;
        check ``relay.pending_entries()`` for leftovers.
        """
        drained = super().drain(timeout)
        self._forward_stop.set()
        self._forward_wake.set()
        if self._forwarder is not None:
            self._forwarder.join(timeout=max(timeout, 1.0))
        try:
            self.relay.forward()
        except Exception:
            pass
        return drained

    def server_close(self) -> None:
        self._forward_stop.set()
        self._forward_wake.set()
        super().server_close()
        self.relay.close()

    # -- dispatch ------------------------------------------------------------

    def _push(self, relay: RelayService, payload: bytes) -> Reply:
        ops, operations = relay.accept_payload(payload)
        self._maybe_forward()
        return FrameType.OK, (f"relayed {ops} ops over "
                              f"{operations} operations").encode("utf-8")

    def _push_seq(self, relay: RelayService, payload: bytes) -> Reply:
        client_id, seq, profile = decode_push_seq(payload)
        reply = bad_payload(
            lambda: relay.accept_sequenced(client_id, seq, profile)[0])
        self._maybe_forward()
        return reply

    def _maybe_forward(self) -> None:
        if len(self.relay.pending_entries()) >= self.relay.batch:
            self.signal_forward()
