"""The VFS: operation dispatch with file-system-level instrumentation.

The VFS owns the mount, dispatches ``read``/``llseek``/``readdir``/...
to the mounted file system, and wraps every dispatched operation with
the FSPROF instrumentation (:class:`~repro.vfs.instrument.FsInstrument`)
— the layer FoSgen instruments in real kernels.

Like real VFS dispatch, every operation charges a small fixed CPU cost
on top of the file system's own work; this is the per-layer latency
that comparing user-level and FS-level profiles isolates (Section 3.1).
"""

from __future__ import annotations

from typing import List, Optional

from ..sim.process import CpuBurst, ProcBody, Process
from ..sim.scheduler import Kernel
from .file import File
from .inode import DirEntry, Inode
from .instrument import FsInstrument
from .pagecache import PageCache

__all__ = ["FileSystem", "Vfs", "VFS_DISPATCH_COST"]

#: CPU cost of VFS-level dispatch (fd lookup, permission check).
VFS_DISPATCH_COST = 60.0


class FileSystem:
    """Interface every simulated file system implements.

    All operations are generator coroutines; ``vfs`` wires itself in via
    :meth:`bind` so file systems can reach the shared page cache and the
    instrumentation for nested operations (readdir -> readpage).
    """

    name = "fs"

    def __init__(self):
        self.vfs: Optional["Vfs"] = None
        self.root: Optional[Inode] = None

    def bind(self, vfs: "Vfs") -> None:
        self.vfs = vfs

    # Operations; subclasses override what they support.

    def file_read(self, proc: Process, file: File, size: int) -> ProcBody:
        raise NotImplementedError
        yield  # pragma: no cover

    def file_write(self, proc: Process, file: File, size: int) -> ProcBody:
        raise NotImplementedError
        yield  # pragma: no cover

    def readdir(self, proc: Process, file: File) -> ProcBody:
        raise NotImplementedError
        yield  # pragma: no cover

    def readpage(self, proc: Process, inode: Inode,
                 page_index: int) -> ProcBody:
        raise NotImplementedError
        yield  # pragma: no cover

    def llseek(self, proc: Process, file: File, offset: int,
               whence: int) -> ProcBody:
        raise NotImplementedError
        yield  # pragma: no cover

    def fsync(self, proc: Process, file: File) -> ProcBody:
        raise NotImplementedError
        yield  # pragma: no cover

    def write_super(self, proc: Process) -> ProcBody:
        """Flush superblock/journal; a no-op unless journaled."""
        return None
        yield  # pragma: no cover


class Vfs:
    """Mount point + instrumented dispatch."""

    def __init__(self, kernel: Kernel, fs: FileSystem,
                 pagecache: Optional[PageCache] = None,
                 fsprof: Optional[FsInstrument] = None):
        self.kernel = kernel
        self.fs = fs
        self.pagecache = pagecache if pagecache is not None \
            else PageCache(kernel)
        # Uninstrumented mounts route through a NullSink-backed probe:
        # same code path as profiled mounts, measured-zero overhead.
        self.fsprof = fsprof if fsprof is not None \
            else FsInstrument(kernel, variant="off")
        fs.bind(self)

    # -- plumbing --------------------------------------------------------------

    def _dispatch(self, proc: Process, operation: str,
                  body: ProcBody) -> ProcBody:
        kernel = self.kernel
        cycles = kernel.rng.jitter(VFS_DISPATCH_COST)
        if not kernel.burn(proc, cycles):
            yield CpuBurst(cycles)
        result = yield from self.fsprof.invoke(proc, operation, body)
        return result

    def instrument(self, proc: Process, operation: str,
                   body: ProcBody) -> ProcBody:
        """Instrument a nested FS-internal operation (e.g. readpage)."""
        return self.fsprof.invoke(proc, operation, body)

    # -- operations ---------------------------------------------------------------

    def open_inode(self, inode: Inode, flags: int = 0) -> File:
        """Create an open file description (no I/O: dcache-hot open)."""
        return File(inode, flags)

    def read(self, proc: Process, file: File, size: int) -> ProcBody:
        file.require_open()
        return (yield from self._dispatch(
            proc, "read", self.fs.file_read(proc, file, size)))

    def write(self, proc: Process, file: File, size: int) -> ProcBody:
        file.require_open()
        return (yield from self._dispatch(
            proc, "write", self.fs.file_write(proc, file, size)))

    def llseek(self, proc: Process, file: File, offset: int,
               whence: int = 0) -> ProcBody:
        file.require_open()
        return (yield from self._dispatch(
            proc, "llseek", self.fs.llseek(proc, file, offset, whence)))

    def readdir(self, proc: Process, file: File) -> ProcBody:
        file.require_open()
        return (yield from self._dispatch(
            proc, "readdir", self.fs.readdir(proc, file)))

    def fsync(self, proc: Process, file: File) -> ProcBody:
        file.require_open()
        return (yield from self._dispatch(
            proc, "fsync", self.fs.fsync(proc, file)))

    def close(self, proc: Process, file: File) -> ProcBody:
        yield CpuBurst(self.kernel.rng.jitter(VFS_DISPATCH_COST / 2.0))
        file.closed = True
        return None
