"""Inodes and directory entries.

Each inode carries the ``i_sem`` semaphore that Linux 2.6 used to
serialize operations on the object — the semaphore behind the paper's
Section 6.1 llseek contention discovery.  Directory inodes hold their
entries in page-sized chunks so ``readdir`` walks them the way Ext2
walks directory blocks.  An inode's block map is a :class:`BlockMap`:
runs of contiguous disk blocks, like Ext4 extents, so a large file
costs memory per fragment rather than per block.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Iterator, List, Optional, Tuple

from ..disk.geometry import BLOCK_SIZE
from ..sim.scheduler import Kernel
from ..sim.sync import Semaphore

__all__ = ["BlockMap", "Inode", "InodeTable", "DirEntry",
           "ENTRIES_PER_PAGE", "S_IFREG", "S_IFDIR"]

S_IFREG = "file"
S_IFDIR = "dir"

#: Ext2 packs variable-size dirents; ~64 per 4 KB block is typical for
#: kernel-source-like names.
ENTRIES_PER_PAGE = 64


class DirEntry:
    """One directory entry: a name and the inode it references."""

    __slots__ = ("name", "ino")

    def __init__(self, name: str, ino: int):
        self.name = name
        self.ino = ino

    def __repr__(self) -> str:
        return f"DirEntry({self.name!r}, ino={self.ino})"


class BlockMap:
    """The disk blocks backing an inode's pages, stored as runs.

    Page ``p`` lives on one disk block; pages whose blocks are
    consecutive share a run, kept as its first block and the page where
    it starts in two parallel lists.  Lookup is a binary search over the
    run starts.  Appending a run that continues the last one extends it,
    so a map holds as many runs as its blocks have breaks, plus one.
    """

    __slots__ = ("_firsts", "_starts", "_size")

    def __init__(self):
        self._firsts: List[int] = []  # first disk block of each run
        self._starts: List[int] = []  # page index where each run starts
        self._size = 0                # pages mapped

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, page_index: int) -> int:
        """The disk block of one page, ``0 <= page_index < len(self)``."""
        if not 0 <= page_index < self._size:
            raise IndexError(f"page {page_index} outside the block map "
                             f"({self._size} pages)")
        run = bisect_right(self._starts, page_index) - 1
        return self._firsts[run] + page_index - self._starts[run]

    def __iter__(self) -> Iterator[int]:
        for first, count in self.runs():
            yield from range(first, first + count)

    def runs(self) -> List[Tuple[int, int]]:
        """``(first block, length)`` of every run, in page order."""
        ends = self._starts[1:]
        ends.append(self._size)
        return [(first, end - start) for first, start, end
                in zip(self._firsts, self._starts, ends)]

    def append_run(self, first: int, count: int) -> None:
        """Map the next *count* pages to blocks ``first, first + 1, ...``."""
        if count < 1:
            raise ValueError("a run holds at least one block")
        firsts = self._firsts
        if firsts and firsts[-1] + self._size - self._starts[-1] == first:
            self._size += count
            return
        firsts.append(first)
        self._starts.append(self._size)
        self._size += count

    def extend(self, other: "BlockMap") -> None:
        """Map the next pages to *other*'s blocks, in its page order."""
        for first, count in other.runs():
            self.append_run(first, count)

    def __repr__(self) -> str:
        return f"<BlockMap {self._size} pages in {len(self._firsts)} runs>"


class Inode:
    """An in-memory inode: metadata, block map, and the i_sem semaphore."""

    def __init__(self, kernel: Kernel, ino: int, kind: str):
        if kind not in (S_IFREG, S_IFDIR):
            raise ValueError(f"unknown inode kind {kind!r}")
        self.kernel = kernel
        self.ino = ino
        self.kind = kind
        self.size = 0  # bytes for files, entry count for directories
        self.blocks = BlockMap()  # disk blocks, one per page
        self.entries: List[DirEntry] = []  # directories only
        self.i_sem = Semaphore(kernel, name=f"i_sem:{ino}")
        self.atime = 0.0
        self.mtime = 0.0
        self.dirty = False
        self.nlink = 1

    @property
    def is_dir(self) -> bool:
        return self.kind == S_IFDIR

    def num_pages(self) -> int:
        """Pages of data (file bytes or directory entries)."""
        if self.is_dir:
            return (len(self.entries) + ENTRIES_PER_PAGE - 1) \
                // ENTRIES_PER_PAGE
        return (self.size + BLOCK_SIZE - 1) // BLOCK_SIZE

    def block_for(self, page_index: int) -> int:
        """The disk block backing one page of this inode."""
        try:
            return self.blocks[page_index]
        except IndexError:
            raise ValueError(
                f"inode {self.ino}: page {page_index} beyond mapped "
                f"blocks ({len(self.blocks)})") from None

    def dir_page_entries(self, page_index: int) -> List[DirEntry]:
        """The directory entries stored in one page."""
        if not self.is_dir:
            raise ValueError("not a directory")
        start = page_index * ENTRIES_PER_PAGE
        return self.entries[start:start + ENTRIES_PER_PAGE]

    def add_entry(self, name: str, ino: int) -> None:
        if not self.is_dir:
            raise ValueError("not a directory")
        self.entries.append(DirEntry(name, ino))
        self.size = len(self.entries)

    def lookup_entry(self, name: str) -> Optional[DirEntry]:
        if not self.is_dir:
            raise ValueError("not a directory")
        for entry in self.entries:
            if entry.name == name:
                return entry
        return None

    def touch_atime(self, now: float) -> None:
        """Mark access time; dirties metadata for the flush daemon."""
        self.atime = now
        self.dirty = True

    def __repr__(self) -> str:
        return f"<Inode {self.ino} {self.kind} size={self.size}>"


class InodeTable:
    """Allocates inode numbers and tracks live inodes."""

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self._inodes: Dict[int, Inode] = {}
        self._next_ino = 2  # inode 2 is the root, as in Ext2

    def allocate(self, kind: str) -> Inode:
        inode = Inode(self.kernel, self._next_ino, kind)
        self._inodes[inode.ino] = inode
        self._next_ino += 1
        return inode

    def get(self, ino: int) -> Inode:
        return self._inodes[ino]

    def __len__(self) -> int:
        return len(self._inodes)

    def dirty_inodes(self) -> List[Inode]:
        """Inodes with pending metadata updates (atime etc.)."""
        return [inode for inode in self._inodes.values() if inode.dirty]
