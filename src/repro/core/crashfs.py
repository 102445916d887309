"""CrashFS: record every durable write, then materialize any crash.

The reliability story so far asserted crash safety at a handful of
hand-picked fault sites (``warehouse.ingest`` after-file/after-log,
kill-server-mid-push, ...).  CrashFS replaces sampling with
enumeration, the way ReLayTracer slices execution into layers instead
of guessing where an anomaly lives: every durable writer in the tree
funnels through :mod:`repro.core.durable`, which journals each
operation — write, append, fsync, rename, unlink — into a CrashFS
instance.  From that op-log, :meth:`CrashFS.materialize` rebuilds the
on-disk state a machine could be left in if the power died after any
*prefix* of the ops, under any of the page-cache outcomes a real
filesystem permits:

``flush``
    everything in the cache survived (the kindest crash — equivalent
    to the kernel having flushed just in time);
``strict``
    only explicitly fsynced state survived: un-fsynced file data *and*
    un-fsynced directory entries (creates, renames, unlinks) are gone;
``rename-no-data``
    directory entries survived but un-fsynced file data did not — the
    classic ext-style reordering where a rename becomes durable while
    the payload behind it is still dirty, leaving a committed-looking
    file empty (this is the mode that catches a missing
    fsync-before-rename);
``data-no-rename``
    the converse writeback order: file data reached the platter but
    un-fsynced directory entries did not (catches a missing
    parent-directory fsync after rename);
``torn``
    directory entries survived and every file's un-fsynced byte delta
    is torn at a seed-derived position — the mid-buffer power cut that
    CRC framing must turn into a loud, truncating recovery.

A crash *image* is ``(prefix length, mode)`` materialized into a fresh
directory; the exploration drivers (``tests/integration/
test_crash_matrix.py``) reopen each image with the real recovery code
and assert the invariant: nothing acked is lost, the index equals a
pure log replay, and queries are byte-identical to a legal pre-crash
state or loudly degraded.

Model simplifications, stated honestly: directory *creation* is
treated as durable (every recorded mkdir exists in every image — the
interesting bugs live in file data and renames, not mkdir), and loss
is applied uniformly per mode rather than per-file (the four lossy
modes are the corners of the per-file outcome space; a mixed outcome
is always component-wise between two corners, and every recovery
invariant we check is per-file, so the corners dominate).

:meth:`CrashFS.note` interleaves externally-visible events (an
upstream ack, a client-visible return) into the op stream, so a driver
can reconstruct *what the rest of the world had already seen* at any
crash point.
"""

from __future__ import annotations

import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from ..sim.rng import derive_seed

__all__ = ["MODES", "Op", "CrashFS"]

#: Every materialization mode, kindest first.
MODES = ("flush", "strict", "rename-no-data", "data-no-rename", "torn")

#: Modes where un-fsynced directory entries survive the crash.
_NS_SURVIVES = {"flush", "rename-no-data", "torn"}
#: Modes where un-fsynced file data survives the crash.
_DATA_SURVIVES = {"flush", "data-no-rename"}


@dataclass(frozen=True)
class Op:
    """One journaled filesystem operation (paths relative to the root)."""

    kind: str                     #: mkdir|write|append|fsync|fsync_dir|
                                  #: replace|unlink|truncate|note
    path: str = ""
    data: Optional[bytes] = None  #: payload of write/append
    dest: Optional[str] = None    #: rename target of replace
    size: Optional[int] = None    #: truncate length
    tag: Any = None               #: opaque marker of a note


class _Inode:
    """File content with two truths: the cache and the platter."""

    __slots__ = ("cache", "durable")

    def __init__(self, cache: bytes = b"", durable: bytes = b""):
        self.cache = cache
        self.durable = durable


class CrashFS:
    """An op journal over one directory tree, and its crash images."""

    def __init__(self, root):
        self.root = Path(root).resolve()
        self.ops: List[Op] = []

    # -- recording (called through repro.core.durable) -----------------------

    def _rel(self, path) -> Optional[str]:
        try:
            return Path(path).resolve().relative_to(self.root).as_posix()
        except ValueError:
            return None

    def record(self, kind: str, path, data: Optional[bytes] = None,
               dest=None, size: Optional[int] = None) -> None:
        rel = self._rel(path)
        rel_dest = self._rel(dest) if dest is not None else None
        if rel is None and rel_dest is None:
            return  # outside the recorded tree
        self.ops.append(Op(kind=kind, path=rel if rel is not None else "",
                           data=data, dest=rel_dest, size=size))

    def note(self, tag) -> None:
        """Interleave an external event marker into the op stream."""
        self.ops.append(Op(kind="note", tag=tag))

    def mark(self) -> int:
        """The current op count — 'everything before this is done'."""
        return len(self.ops)

    def notes_through(self, point: int) -> List[Any]:
        """Tags of every note op within the first *point* ops."""
        return [op.tag for op in self.ops[:point] if op.kind == "note"]

    # -- materialization -----------------------------------------------------

    def materialize(self, dest, point: int, mode: str,
                    seed: int = 0) -> Path:
        """Build the crash image of ``ops[:point]`` under *mode* at *dest*.

        *dest* is wiped first, so drivers can reuse one scratch
        directory across the whole enumeration.  Returns *dest*.
        """
        if mode not in MODES:
            raise ValueError(f"unknown crash mode {mode!r}; expected one "
                             f"of {', '.join(MODES)}")
        if not 0 <= point <= len(self.ops):
            raise ValueError(f"crash point {point} outside "
                             f"0..{len(self.ops)}")
        dirs, cache_ns, durable_ns = self._replay(point)
        names = dict(cache_ns) if mode in _NS_SURVIVES else dict(durable_ns)
        dest = Path(dest)
        if dest.exists():
            shutil.rmtree(dest)
        dest.mkdir(parents=True)
        for rel in sorted(dirs):
            (dest / rel).mkdir(parents=True, exist_ok=True)
        for rel in sorted(names):
            inode = names[rel]
            content = self._content(inode, mode, rel, point, seed)
            path = dest / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(content)
        return dest

    def _content(self, inode: _Inode, mode: str, rel: str, point: int,
                 seed: int) -> bytes:
        if mode in _DATA_SURVIVES or inode.cache == inode.durable:
            return inode.cache if mode in _DATA_SURVIVES else inode.durable
        if mode != "torn":
            return inode.durable
        # Tear the un-fsynced delta at a seed-derived position: always
        # at least one dirty byte lost, so torn never collapses into
        # flush.  A non-extending rewrite tears the whole new content.
        rng = random.Random(derive_seed(seed, f"{rel}|{point}"))
        if inode.cache[:len(inode.durable)] == inode.durable:
            delta = inode.cache[len(inode.durable):]
            return inode.durable + delta[:rng.randrange(len(delta))]
        return inode.cache[:rng.randrange(len(inode.cache))]

    def _replay(self, point: int) -> Tuple[set, Dict[str, _Inode],
                                           Dict[str, _Inode]]:
        dirs: set = set()
        cache_ns: Dict[str, _Inode] = {}
        durable_ns: Dict[str, _Inode] = {}
        for op in self.ops[:point]:
            if op.kind == "note":
                continue
            if op.kind == "mkdir":
                rel = op.path
                while rel and rel != ".":
                    dirs.add(rel)
                    rel = Path(rel).parent.as_posix()
            elif op.kind == "write":
                cache_ns[op.path] = _Inode(cache=op.data or b"")
            elif op.kind == "append":
                inode = cache_ns.setdefault(op.path, _Inode())
                inode.cache += op.data or b""
            elif op.kind == "fsync":
                inode = cache_ns.get(op.path)
                if inode is not None:
                    inode.durable = inode.cache
            elif op.kind == "truncate":
                inode = cache_ns.get(op.path)
                if inode is not None:
                    inode.cache = inode.cache[:op.size]
                    inode.durable = inode.durable[:op.size]
            elif op.kind == "replace":
                inode = cache_ns.pop(op.path, None)
                if inode is not None and op.dest is not None:
                    cache_ns[op.dest] = inode
            elif op.kind == "unlink":
                cache_ns.pop(op.path, None)
            elif op.kind == "fsync_dir":
                parent = op.path or "."
                touched = {rel for rel in cache_ns
                           if Path(rel).parent.as_posix() == parent}
                touched |= {rel for rel in durable_ns
                            if Path(rel).parent.as_posix() == parent}
                for rel in touched:
                    if rel in cache_ns:
                        durable_ns[rel] = cache_ns[rel]
                    else:
                        durable_ns.pop(rel, None)
            else:
                raise ValueError(f"unknown journaled op kind {op.kind!r}")
        return dirs, cache_ns, durable_ns

    def __repr__(self) -> str:
        return f"<CrashFS {str(self.root)!r} ops={len(self.ops)}>"
