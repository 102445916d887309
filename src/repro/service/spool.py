"""Crash-safe on-disk spool of pending profile pushes.

When the continuous-profiling service is unreachable, a collector must
not drop segments — the whole differential-analysis pipeline assumes
lossless collection.  :class:`Spool` is the write-ahead buffer that
makes that hold across *collector* crashes too: every pending push is a
file on disk, written atomically (temp + ``os.replace``), named by its
per-client sequence number, and drained in order when the connection
comes back.

Framing reuses the binary profile codec: each spool file is exactly one
``ProfileSet.to_bytes()`` payload, which already ends in a CRC-32
trailer over its content.  Draining re-verifies that CRC; a file that
fails (torn write, disk damage) is quarantined with a ``.corrupt``
suffix and counted, never pushed — the spool can delay data, but it can
never silently deliver wrong data.

The directory also persists the client identity (``client-id``) and a
sequence high-water mark (``last-seq``), so a restarted collector keeps
its dedup identity and never reissues a sequence number even after the
spool has fully drained.
"""

from __future__ import annotations

import uuid
from pathlib import Path
from typing import Callable, List, Optional

from ..core import durable
from ..core.profileset import parse_binary

__all__ = ["Spool"]

_SUFFIX = ".ospb"
_CORRUPT_SUFFIX = ".corrupt"
_ID_FILE = "client-id"
_SEQ_FILE = "last-seq"


class Spool:
    """An ordered, CRC-checked directory of pending binary profiles."""

    def __init__(self, root, client_id: Optional[str] = None):
        self.root = Path(root)
        durable.ensure_dir(self.root)
        self.client_id = self._load_client_id(client_id)
        self._last_seq = self._load_last_seq()
        self.corrupted = 0  #: files quarantined by this instance

    # -- identity & sequencing --------------------------------------------

    def _load_client_id(self, requested: Optional[str]) -> str:
        path = self.root / _ID_FILE
        if requested:
            durable.write_atomic(path, requested.encode("utf-8"))
            return requested
        if path.exists():
            stored = path.read_text(encoding="utf-8").strip()
            if stored:
                return stored
        generated = f"osprof-{uuid.uuid4().hex[:12]}"
        durable.write_atomic(path, generated.encode("utf-8"))
        return generated

    def _load_last_seq(self) -> int:
        last = 0
        path = self.root / _SEQ_FILE
        if path.exists():
            try:
                last = int(path.read_text(encoding="utf-8").strip() or 0)
            except ValueError:
                last = 0
        pending = self.pending()
        if pending:
            last = max(last, pending[-1])
        return last

    def _path(self, seq: int) -> Path:
        return self.root / f"{seq:020d}{_SUFFIX}"

    # -- queue operations --------------------------------------------------

    def append(self, payload: bytes) -> int:
        """Persist one encoded profile; returns its sequence number.

        The payload file lands via the fully-fsynced atomic commit
        (:func:`repro.core.durable.write_atomic`), and the high-water
        mark is advanced — same discipline — first: a crash between
        the two steps wastes a sequence number, never reuses one.
        """
        seq = self._last_seq + 1
        durable.write_atomic(self.root / _SEQ_FILE,
                             str(seq).encode("utf-8"))
        self._last_seq = seq
        durable.write_atomic(self._path(seq), payload)
        return seq

    def pending(self) -> List[int]:
        """Sequence numbers still spooled, oldest first."""
        seqs = []
        for entry in self.root.iterdir():
            if entry.suffix == _SUFFIX and not entry.name.startswith("."):
                try:
                    seqs.append(int(entry.stem))
                except ValueError:
                    continue
        return sorted(seqs)

    def payload(self, seq: int) -> bytes:
        return self._path(seq).read_bytes()

    def remove(self, seq: int) -> None:
        durable.unlink(self._path(seq))

    def quarantine(self, seq: int) -> None:
        """Move a damaged entry aside (kept for forensics, never pushed)."""
        path = self._path(seq)
        try:
            durable.replace(path, path.with_suffix(_CORRUPT_SUFFIX))
        except FileNotFoundError:
            pass
        self.corrupted += 1

    def __len__(self) -> int:
        return len(self.pending())

    # -- draining ----------------------------------------------------------

    def drain(self, push: Callable[[int, bytes], None]) -> int:
        """Deliver every pending payload in sequence order.

        ``push(seq, payload)`` must raise to stop the drain (service
        gone again); delivered entries are removed as they go, so a
        partial drain never re-delivers out of order.  CRC-damaged
        entries are quarantined and skipped.  Returns the number
        delivered.
        """
        delivered = 0
        for seq in self.pending():
            payload = self.payload(seq)
            try:
                parse_binary(payload)
            except ValueError:
                self.quarantine(seq)
                continue
            push(seq, payload)
            self.remove(seq)
            delivered += 1
        return delivered

    def __repr__(self) -> str:
        return (f"<Spool {str(self.root)!r} client={self.client_id} "
                f"pending={len(self)} last_seq={self._last_seq}>")
