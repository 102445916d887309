"""CIFS/SMB client file systems (Section 6.4, Figure 10).

Two client behaviours, matching the paper's comparison:

* **windows** — standard delayed ACKs.  During a FIND transaction the
  client has nothing to send while the server's reply streams in, so
  the ACK for a lone trailing segment waits 200 ms — and the server
  won't continue without it.  ``FIND_FIRST``/``FIND_NEXT`` latencies
  collect in buckets 26-30.
* **linux** — the smbfs client issues its next request (carrying the
  ACK) immediately; we model it as an immediately-ACKing endpoint, so
  those peaks vanish.

The client is a :class:`~repro.vfs.vfs.FileSystem`: ``readdir`` maps to
FIND transactions with client-side entry buffering (buffered calls are
the local peaks of Figure 10), ``read`` maps to READ transactions
through the client page cache.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..sim.process import Condition, CpuBurst, ProcBody, Process, WaitCondition
from ..sim.scheduler import Kernel
from ..vfs.file import File
from ..vfs.inode import InodeTable
from ..vfs.vfs import FileSystem
from .smb import (FindFirstRequest, FindNextRequest, FindReply, ReadReply,
                  ReadRequest)
from .tcp import TcpEndpoint

__all__ = ["CifsClient", "FLAVOR_WINDOWS", "FLAVOR_LINUX"]

FLAVOR_WINDOWS = "windows"
FLAVOR_LINUX = "linux"

#: Client-side marshalling cost per SMB transaction (cycles).
MARSHAL_COST = 4_000.0

#: Serving one readdir batch from the client's entry buffer.
BUFFERED_DIR_COST = 2_000.0

#: Client page-cache copy cost for a cached read.
CACHED_READ_COST = 1_800.0

#: readdir past end of listing.
EOF_COST = 100.0

#: SMB request class -> network-level probe operation name.
_SMB_OPS = {
    "FindFirstRequest": "smb_find_first",
    "FindNextRequest": "smb_find_next",
    "ReadRequest": "smb_read",
}


class _Listing:
    """Client-side state of one directory enumeration (per open file)."""

    __slots__ = ("entries", "cookie", "exhausted")

    def __init__(self):
        self.entries: List[Any] = []
        self.cookie: Optional[int] = None
        self.exhausted = False


class CifsClient(FileSystem):
    """A network file system backed by a :class:`CifsServer`."""

    name = "cifs"

    def __init__(self, kernel: Kernel, endpoint: TcpEndpoint,
                 inodes: InodeTable, flavor: str = FLAVOR_WINDOWS,
                 readdir_chunk: int = 16,
                 probe=None):
        super().__init__()
        if flavor not in (FLAVOR_WINDOWS, FLAVOR_LINUX):
            raise ValueError(f"unknown client flavor {flavor!r}")
        self.kernel = kernel
        self.endpoint = endpoint
        self.inodes = inodes
        self.flavor = flavor
        self.readdir_chunk = readdir_chunk
        endpoint.on_receive = self._on_packet
        if flavor == FLAVOR_LINUX:
            # smbfs always has a request to piggyback an ACK onto.
            endpoint.ack_immediately = True
        self._next_mid = 1
        self._pending: Dict[int, Dict[str, Any]] = {}
        self.transactions = 0
        #: Network-level ProbePoint measuring each SMB transaction
        #: send->reply under ``smb_<request>`` — the layer whose far
        #: peaks expose the delayed-ACK pathology directly.
        self.probe_point = probe

    # -- transport ----------------------------------------------------------

    def _on_packet(self, packet) -> None:
        reply = packet.payload
        if reply is None or not isinstance(reply, (FindReply, ReadReply)):
            return
        pending = self._pending.pop(reply.mid, None)
        if pending is None:
            return
        self.kernel.fire_condition(pending["condition"], reply,
                                   wake_all=True)

    def _transact(self, proc: Process, request) -> ProcBody:
        """Send one request and sleep until its reply is assembled."""
        yield CpuBurst(self.kernel.rng.jitter(MARSHAL_COST, sigma=0.3))
        condition = Condition(f"smb:mid{request.mid}")
        self._pending[request.mid] = {"condition": condition}
        start = self.kernel.now
        self.endpoint.send(request.wire_size(),
                           type(request).__name__ + " request (SMB)",
                           request)
        reply = yield WaitCondition(condition)
        self.transactions += 1
        probe = self.probe_point
        if probe is not None and probe.active:
            name = type(request).__name__
            probe.record(_SMB_OPS.get(name, "smb_" + name.lower()),
                         self.kernel.now - start, start=start,
                         context=proc.request_context)
        return reply

    def _mid(self) -> int:
        mid = self._next_mid
        self._next_mid += 1
        return mid

    # -- FIND operations (instrumented separately, as in Figure 10) ------------

    def _find_first(self, proc: Process, directory_ino: int) -> ProcBody:
        request = FindFirstRequest(mid=self._mid(),
                                   directory_ino=directory_ino)
        reply = yield from self._transact(proc, request)
        return reply

    def _find_next(self, proc: Process, cookie: int) -> ProcBody:
        request = FindNextRequest(mid=self._mid(), cookie=cookie)
        reply = yield from self._transact(proc, request)
        return reply

    def _buffered_batch(self, proc: Process) -> ProcBody:
        """Serve a readdir batch from the client's entry buffer."""
        yield CpuBurst(self.kernel.rng.jitter(BUFFERED_DIR_COST,
                                              sigma=0.5))
        return None

    # -- FileSystem interface -----------------------------------------------------

    def readdir(self, proc: Process, file: File) -> ProcBody:
        """Batch of entries from the listing buffer; FIND when it drains."""
        assert self.vfs is not None, "file system not mounted"
        listing = file.fs_private
        if listing is None:
            listing = _Listing()
            file.fs_private = listing
        if file.pos >= len(listing.entries):
            if listing.exhausted:
                yield CpuBurst(self.kernel.rng.jitter(EOF_COST,
                                                      sigma=0.25))
                return []
            if listing.cookie is None and not listing.entries:
                reply = yield from self.vfs.instrument(
                    proc, "FIND_FIRST",
                    self._find_first(proc, file.inode.ino))
            else:
                reply = yield from self.vfs.instrument(
                    proc, "FIND_NEXT",
                    self._find_next(proc, listing.cookie))
            listing.entries.extend(reply.entries)
            listing.cookie = reply.cookie
            listing.exhausted = reply.end_of_search
            if not reply.entries:
                return []
        else:
            # Served from the client's buffered entries: still a
            # FIND_NEXT IRP at the filter-driver level, but local and
            # fast — Figure 10's left FIND_NEXT peaks.
            yield from self.vfs.instrument(
                proc, "FIND_NEXT", self._buffered_batch(proc))
        batch = listing.entries[file.pos:file.pos + self.readdir_chunk]
        file.pos += len(batch)
        return batch

    def file_read(self, proc: Process, file: File, size: int) -> ProcBody:
        """Read through the client page cache; misses go to the server."""
        assert self.vfs is not None, "file system not mounted"
        inode = file.inode
        if size < 0:
            raise ValueError("size must be non-negative")
        if size == 0 or file.pos >= inode.size:
            yield CpuBurst(self.kernel.rng.jitter(EOF_COST, sigma=0.25))
            return 0
        size = min(size, inode.size - file.pos)
        cache = self.vfs.pagecache
        remaining = size
        while remaining > 0:
            page_index = file.pos // 4096
            in_page = min(remaining, 4096 - file.pos % 4096)
            page = cache.lookup(inode.ino, page_index)
            if page is None or not page.resident:
                request = ReadRequest(mid=self._mid(), ino=inode.ino,
                                      offset=page_index * 4096,
                                      length=4096)
                yield from self._transact(proc, request)
                cache.install_resident(inode.ino, page_index)
            yield CpuBurst(self.kernel.rng.jitter(CACHED_READ_COST,
                                                  sigma=0.3))
            file.pos += in_page
            remaining -= in_page
        return size

    def llseek(self, proc: Process, file: File, offset: int,
               whence: int) -> ProcBody:
        """Purely client-local: Windows leaves position consistency to
        applications (Section 6.1 found no CIFS lock contention)."""
        yield CpuBurst(self.kernel.rng.jitter(120.0, sigma=0.25))
        return file.seek(offset, whence)
