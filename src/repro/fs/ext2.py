"""An Ext2-like file system.

Implements the operation structure behind the paper's Figure 7 grep
analysis:

* ``readdir`` returns a bounded batch of entries per call.  Calls past
  the end of directory return immediately (**first peak**, buckets 6-7);
  calls served from the page cache cost a couple of thousand cycles
  (**second peak**, buckets 9-14); a call whose page is missing invokes
  ``readpage`` — which *initiates* disk I/O and returns — then sleeps on
  the page, landing in the **third peak** (drive segment-cache hit,
  buckets 16-17) or the **fourth** (real seek + rotation, 18-23).
* ``read`` follows the same page-cache path for buffered I/O; with
  O_DIRECT it bypasses the cache and holds the inode's ``i_sem`` across
  the disk access — the contention ``llseek`` then suffers (Section 6.1).
* ``llseek`` uses ``generic_file_llseek`` (or the patched variant when
  the file system is mounted with ``patched_llseek=True``).
* ``write`` is write-back: it dirties page-cache pages and returns;
  ``fsync`` and the flush daemon push them to disk.
"""

from __future__ import annotations

from typing import List, Optional

from ..disk.driver import ScsiDriver
from ..disk.geometry import BLOCK_SIZE
from ..sim.process import CpuBurst, ProcBody, Process
from ..sim.scheduler import Kernel
from ..vfs.file import File
from ..vfs.inode import ENTRIES_PER_PAGE, Inode, InodeTable, S_IFREG
from ..vfs.llseek import generic_file_llseek, generic_file_llseek_patched
from ..vfs.vfs import FileSystem
from .mkfs import BlockAllocator

__all__ = ["Ext2", "READDIR_CHUNK"]

#: Directory entries returned per readdir call (getdents batch).  Less
#: than a page's worth, so one page yields one miss + several cached
#: hits — the ratio of Figure 7's second peak to its third and fourth.
READDIR_CHUNK = 16

#: OS readahead window: starts at 4 pages on a detected sequential
#: streak and doubles to 32 (Linux's classic on-demand readahead).
RA_INITIAL = 4
RA_MAX = 32


class Ext2(FileSystem):
    """The buffered, non-journaled baseline file system."""

    name = "ext2"

    # CPU costs (cycles at 1.7 GHz), chosen so peaks land in the paper's
    # buckets: see module docstring.
    EOF_CHECK_COST = 90.0        # readdir past EOF -> buckets 6-7
    CACHED_DIR_COST = 2_400.0    # cached readdir -> buckets 9-14
    READPAGE_SETUP_COST = 1_300.0  # block mapping, buffer heads
    READPAGE_SUBMIT_COST = 600.0   # queueing the bio
    COPY_BASE_COST = 900.0       # per-call copy/bookkeeping floor
    COPY_PER_BYTE = 0.25         # memcpy throughput ~4 B/cycle... /page
    ZERO_READ_COST = 40.0        # a zero-byte read body (Figure 3)
    CREATE_COST = 6_000.0
    UNLINK_COST = 5_000.0
    WRITE_PAGE_COST = 2_000.0

    def __init__(self, kernel: Kernel, driver: ScsiDriver,
                 inodes: InodeTable, allocator: BlockAllocator,
                 patched_llseek: bool = False,
                 readdir_chunk: int = READDIR_CHUNK,
                 readahead: bool = True):
        super().__init__()
        if readdir_chunk < 1:
            raise ValueError("readdir_chunk must be positive")
        self.kernel = kernel
        self.driver = driver
        self.inodes = inodes
        self.allocator = allocator
        self.patched_llseek = patched_llseek
        self.readdir_chunk = readdir_chunk
        #: OS-level readahead on sequential buffered reads.
        self.readahead = readahead
        self.readahead_pages = 0

    # -- helpers ---------------------------------------------------------------

    def _pagecache(self):
        assert self.vfs is not None, "file system not mounted"
        return self.vfs.pagecache

    def _get_page(self, proc: Process, inode: Inode,
                  page_index: int) -> ProcBody:
        """Page-cache lookup; on miss run instrumented readpage, then wait."""
        cache = self._pagecache()
        page = cache.lookup(inode.ino, page_index)
        if page is None:
            assert self.vfs is not None
            page = yield from self.vfs.instrument(
                proc, "readpage",
                self.readpage(proc, inode, page_index))
        if not page.resident:
            yield from cache.wait(page)
        return page

    # -- operations -------------------------------------------------------------

    def readpage(self, proc: Process, inode: Inode,
                 page_index: int) -> ProcBody:
        """Initiate the read of one page; does NOT wait for completion."""
        yield CpuBurst(self.kernel.rng.jitter(self.READPAGE_SETUP_COST,
                                              sigma=0.4))
        block = inode.block_for(page_index)
        request = self.driver.submit_read(block)
        page = self._pagecache().install_inflight(inode.ino, page_index,
                                                  request)
        yield CpuBurst(self.kernel.rng.jitter(self.READPAGE_SUBMIT_COST,
                                              sigma=0.4))
        return page

    def readdir(self, proc: Process, file: File) -> ProcBody:
        """Return the next batch of entries; [] past end of directory."""
        inode = file.inode
        if not inode.is_dir:
            raise ValueError("readdir on a non-directory")
        yield CpuBurst(self.kernel.rng.jitter(self.EOF_CHECK_COST,
                                              sigma=0.25))
        if file.pos >= inode.size:
            return []
        page_index = file.pos // ENTRIES_PER_PAGE
        offset_in_page = file.pos % ENTRIES_PER_PAGE
        cached = self._pagecache().peek(inode.ino, page_index)
        was_cached = cached is not None and cached.resident
        page = yield from self._get_page(proc, inode, page_index)
        if was_cached:
            yield CpuBurst(self.kernel.rng.jitter(self.CACHED_DIR_COST,
                                                  sigma=0.6))
        page_entries = inode.dir_page_entries(page_index)
        batch = page_entries[offset_in_page:
                             offset_in_page + self.readdir_chunk]
        file.pos += len(batch)
        inode.touch_atime(self.kernel.now)
        return batch

    def file_read(self, proc: Process, file: File, size: int) -> ProcBody:
        """Read *size* bytes at the file position (buffered or direct)."""
        inode = file.inode
        if inode.is_dir:
            raise ValueError("file_read on a directory")
        if size < 0:
            raise ValueError("size must be non-negative")
        if size == 0 or file.pos >= inode.size:
            # The zero-byte read of Figure 3: return right away.
            yield CpuBurst(self.kernel.rng.jitter(self.ZERO_READ_COST,
                                                  sigma=0.25))
            return 0
        size = min(size, inode.size - file.pos)
        if file.direct:
            count = yield from self._direct_read(proc, file, size)
        else:
            count = yield from self._buffered_read(proc, file, size)
        inode.touch_atime(self.kernel.now)
        return count

    def _buffered_read(self, proc: Process, file: File,
                       size: int) -> ProcBody:
        inode = file.inode
        remaining = size
        while remaining > 0:
            page_index = file.pos // BLOCK_SIZE
            in_page = min(remaining, BLOCK_SIZE - file.pos % BLOCK_SIZE)
            yield from self._get_page(proc, inode, page_index)
            self._maybe_readahead(file, page_index)
            copy = self.COPY_BASE_COST + self.COPY_PER_BYTE * in_page
            yield CpuBurst(self.kernel.rng.jitter(copy, sigma=0.3))
            file.pos += in_page
            remaining -= in_page
        return size

    def _maybe_readahead(self, file: File, page_index: int) -> None:
        """Asynchronously pre-read ahead of a sequential streak.

        Classic on-demand readahead: a read adjacent to the previous one
        opens (then doubles) a window of pages that are submitted to the
        disk without waiting — so the *next* reads find them resident or
        in flight, and the read profile's disk peak collapses into the
        cached peak.  Random access closes the window.
        """
        if not self.readahead:
            return
        inode = file.inode
        if page_index == file.ra_last_page + 1:
            if file.ra_window == 0:
                file.ra_window = RA_INITIAL
            else:
                file.ra_window = min(file.ra_window * 2, RA_MAX)
        elif page_index != file.ra_last_page:
            file.ra_window = 0
        file.ra_last_page = page_index
        if file.ra_window == 0:
            return
        cache = self._pagecache()
        last = min(inode.num_pages() - 1, page_index + file.ra_window)
        for ahead in range(page_index + 1, last + 1):
            if cache.peek(inode.ino, ahead) is not None:
                continue
            request = self.driver.submit_read(inode.block_for(ahead))
            cache.install_inflight(inode.ino, ahead, request)
            self.readahead_pages += 1

    def _direct_read(self, proc: Process, file: File,
                     size: int) -> ProcBody:
        """O_DIRECT: bypass the page cache, hold i_sem across the I/O.

        Linux 2.6.11's direct-I/O path serialized on the inode
        semaphore; this is the long hold that the unpatched llseek of
        the *other* process piles up behind.
        """
        inode = file.inode
        yield from inode.i_sem.acquire(proc)
        try:
            remaining = size
            while remaining > 0:
                page_index = file.pos // BLOCK_SIZE
                in_page = min(remaining,
                              BLOCK_SIZE - file.pos % BLOCK_SIZE)
                block = inode.block_for(page_index)
                cycles = self.kernel.rng.jitter(self.READPAGE_SETUP_COST,
                                                sigma=0.3)
                if not self.kernel.burn(proc, cycles):
                    yield CpuBurst(cycles)
                yield from self.driver.read(block)
                file.pos += in_page
                remaining -= in_page
        finally:
            yield from inode.i_sem.release(proc)
        return size

    def file_write(self, proc: Process, file: File, size: int) -> ProcBody:
        """Write-back write: dirty pages in the cache and return."""
        inode = file.inode
        if inode.is_dir:
            raise ValueError("file_write on a directory")
        if size <= 0:
            raise ValueError("write size must be positive")
        cache = self._pagecache()
        remaining = size
        while remaining > 0:
            page_index = file.pos // BLOCK_SIZE
            in_page = min(remaining, BLOCK_SIZE - file.pos % BLOCK_SIZE)
            while page_index >= len(inode.blocks):
                inode.blocks.extend(self.allocator.allocate(1))
            cache.mark_dirty(inode.ino, page_index)
            cost = self.WRITE_PAGE_COST + self.COPY_PER_BYTE * in_page
            yield CpuBurst(self.kernel.rng.jitter(cost, sigma=0.3))
            file.pos += in_page
            remaining -= in_page
        inode.size = max(inode.size, file.pos)
        inode.mtime = self.kernel.now
        inode.dirty = True
        return size

    def fsync(self, proc: Process, file: File) -> ProcBody:
        """Synchronously write back the file's dirty pages."""
        inode = file.inode
        cache = self._pagecache()
        flushed = 0
        for page_index in range(inode.num_pages()):
            page = cache.peek(inode.ino, page_index)
            if page is None or not page.dirty:
                continue
            block = inode.block_for(page_index)
            yield from self.driver.write(block)
            cache.clean(page)
            flushed += 1
        inode.dirty = False
        return flushed

    def llseek(self, proc: Process, file: File, offset: int,
               whence: int) -> ProcBody:
        if self.patched_llseek:
            return (yield from generic_file_llseek_patched(
                self.kernel, proc, file, offset, whence))
        return (yield from generic_file_llseek(
            self.kernel, proc, file, offset, whence))

    # -- namespace operations (Postmark needs these) ------------------------------

    def create(self, proc: Process, directory: Inode,
               name: str) -> ProcBody:
        """Create an empty regular file in *directory*."""
        if not directory.is_dir:
            raise ValueError("create in a non-directory")
        if directory.lookup_entry(name) is not None:
            raise FileExistsError(name)
        yield from directory.i_sem.acquire(proc)
        try:
            yield CpuBurst(self.kernel.rng.jitter(self.CREATE_COST,
                                                  sigma=0.4))
            inode = self.inodes.allocate(S_IFREG)
            directory.add_entry(name, inode.ino)
            directory.dirty = True
            self._pagecache().mark_dirty(
                directory.ino, max(0, directory.num_pages() - 1))
        finally:
            yield from directory.i_sem.release(proc)
        return inode

    def unlink(self, proc: Process, directory: Inode,
               name: str) -> ProcBody:
        """Remove a file's directory entry."""
        if not directory.is_dir:
            raise ValueError("unlink in a non-directory")
        yield from directory.i_sem.acquire(proc)
        try:
            entry = directory.lookup_entry(name)
            if entry is None:
                raise FileNotFoundError(name)
            yield CpuBurst(self.kernel.rng.jitter(self.UNLINK_COST,
                                                  sigma=0.4))
            directory.entries = [e for e in directory.entries
                                 if e.name != name]
            directory.size = len(directory.entries)
            directory.dirty = True
        finally:
            yield from directory.i_sem.release(proc)
        return entry.ino
