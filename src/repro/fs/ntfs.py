"""An NTFS-flavoured file system behind a Windows I/O stack.

Two Windows-specific behaviours from the paper:

* **No llseek locking.** "We ran the same workload on a Windows NTFS
  file system and found no lock contention.  This is because keeping
  the current file position consistent is left to user-level
  applications on Windows" (Section 6.1) — so ``llseek`` here is a pure
  position update, contention-free by construction.
* **IRP vs Fast I/O.** "The majority of I/O requests to file systems
  are represented by ... the I/O Request Packet (IRP) ... In certain
  cases, such as when accessing cached data, the overhead associated
  with creating an IRP dominates the cost of the entire operation, so
  Windows supports an alternative mechanism called Fast I/O to bypass
  intermediate layers" (Section 4).  :class:`Ntfs` routes cached reads
  through the cheap Fast I/O path and everything else through IRP
  dispatch, and the :class:`~repro.fs.filterdrv.FilterDriver` profiler
  intercepts both kinds of traffic, as the paper's FileMon-based filter
  driver does.
"""

from __future__ import annotations

from typing import Optional

from ..sim.process import CpuBurst, ProcBody, Process
from ..vfs.file import File
from .ext2 import Ext2

__all__ = ["Ntfs", "IRP_OVERHEAD", "FASTIO_OVERHEAD"]

#: CPU cost of allocating, dispatching, and completing an IRP through
#: the driver stack (the overhead Fast I/O exists to avoid).
IRP_OVERHEAD = 3_500.0

#: CPU cost of a Fast I/O call: a direct function call into the FS.
FASTIO_OVERHEAD = 300.0


class Ntfs(Ext2):
    """Ext2's storage behaviour with Windows dispatch semantics."""

    name = "ntfs"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.irp_requests = 0
        self.fastio_requests = 0

    # -- Windows dispatch -------------------------------------------------------

    def _page_resident(self, file: File, size: int) -> bool:
        """Would this read be fully satisfied from the cache manager?"""
        if file.direct or size <= 0 or file.pos >= file.inode.size:
            return True  # trivial completions take the fast path too
        cache = self._pagecache()
        remaining = min(size, file.inode.size - file.pos)
        pos = file.pos
        while remaining > 0:
            page_index = pos // 4096
            page = cache.peek(file.inode.ino, page_index)
            if page is None or not page.resident:
                return False
            in_page = min(remaining, 4096 - pos % 4096)
            pos += in_page
            remaining -= in_page
        return True

    def file_read(self, proc: Process, file: File, size: int) -> ProcBody:
        """Fast I/O for cached data; IRP dispatch otherwise."""
        if self._page_resident(file, size):
            self.fastio_requests += 1
            yield CpuBurst(self.kernel.rng.jitter(FASTIO_OVERHEAD,
                                                  sigma=0.3))
        else:
            self.irp_requests += 1
            yield CpuBurst(self.kernel.rng.jitter(IRP_OVERHEAD,
                                                  sigma=0.3))
        count = yield from super().file_read(proc, file, size)
        return count

    def llseek(self, proc: Process, file: File, offset: int,
               whence: int) -> ProcBody:
        """Pure user-visible position update: no inode lock at all."""
        file.require_open()
        yield CpuBurst(self.kernel.rng.jitter(120.0, sigma=0.25))
        return file.seek(offset, whence)

    def fastio_fraction(self) -> float:
        """Share of reads served via Fast I/O (cache-warm workloads -> 1)."""
        total = self.irp_requests + self.fastio_requests
        if total == 0:
            return 0.0
        return self.fastio_requests / total
