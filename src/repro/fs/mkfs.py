"""File system construction: block allocation and tree building.

``mkfs``-time helpers populate a simulated file system *before* the
simulation starts — the equivalent of untarring a source tree onto a
freshly formatted disk, then unmounting and remounting so all caches
are cold (the paper unmounted and remounted before every benchmark run,
and ran ``chill`` to evict OS caches).

Block allocation is first-fit sequential with optional gaps, modelling
Ext2's block groups well enough for seek behaviour: files created
together sit near each other; directories far apart in the tree sit on
distant tracks, so a recursive grep pays real seeks.
"""

from __future__ import annotations

from typing import Optional

from ..disk.geometry import BLOCK_SIZE, DiskGeometry
from ..sim.rng import SimRandom
from ..vfs.inode import BlockMap, Inode, InodeTable, S_IFDIR, S_IFREG

__all__ = ["BlockAllocator", "TreeBuilder"]


class BlockAllocator:
    """Sequential first-fit block allocator with fragmentation knobs."""

    def __init__(self, geometry: DiskGeometry,
                 rng: Optional[SimRandom] = None,
                 fragmentation: float = 0.02):
        if not 0.0 <= fragmentation < 1.0:
            raise ValueError("fragmentation must be in [0, 1)")
        self.geometry = geometry
        self.rng = rng if rng is not None else SimRandom(7)
        self.fragmentation = fragmentation
        self._next = 0
        self.allocated = 0

    def allocate(self, count: int = 1) -> BlockMap:
        """Allocate *count* (mostly) contiguous blocks.

        Draws one ``rng.random()`` per block and one ``rng.randint(1,
        64)`` per hole, in block order.  A call that runs off the disk
        raises ``RuntimeError("disk full")`` and leaves ``_next`` and
        ``allocated`` as they were; the draws it made stay consumed.
        """
        if count < 1:
            raise ValueError("must allocate at least one block")
        blocks = BlockMap()
        # The draw chance(fragmentation) makes, without re-checking the
        # range __init__ already validated.
        random = self.rng.random
        fragmentation = self.fragmentation
        num_blocks = self.geometry.num_blocks
        run = block = self._next
        for _ in range(count):
            if random() < fragmentation:
                # Skip ahead: a hole left by deleted files.
                if block > run:
                    blocks.append_run(run, block - run)
                block += self.rng.randint(1, 64)
                run = block
            if block >= num_blocks:
                raise RuntimeError("disk full")
            block += 1
        blocks.append_run(run, block - run)
        self._next = block
        self.allocated += count
        return blocks

    def free_space(self) -> int:
        return self.geometry.num_blocks - self._next


class TreeBuilder:
    """Creates directories and files directly in an inode table."""

    def __init__(self, inodes: InodeTable, allocator: BlockAllocator):
        self.inodes = inodes
        self.allocator = allocator
        self.files_created = 0
        self.dirs_created = 0

    def make_root(self) -> Inode:
        root = self.inodes.allocate(S_IFDIR)
        root.blocks = self.allocator.allocate(1)
        self.dirs_created += 1
        return root

    def mkdir(self, parent: Inode, name: str) -> Inode:
        """Create a directory and link it into *parent*."""
        if not parent.is_dir:
            raise ValueError("parent is not a directory")
        if parent.lookup_entry(name) is not None:
            raise FileExistsError(name)
        child = self.inodes.allocate(S_IFDIR)
        child.blocks = self.allocator.allocate(1)
        parent.add_entry(name, child.ino)
        self._grow_dir_blocks(parent)
        self.dirs_created += 1
        return child

    def mkfile(self, parent: Inode, name: str, size_bytes: int) -> Inode:
        """Create a regular file of the given size in *parent*."""
        if not parent.is_dir:
            raise ValueError("parent is not a directory")
        if parent.lookup_entry(name) is not None:
            raise FileExistsError(name)
        if size_bytes < 0:
            raise ValueError("size must be non-negative")
        child = self.inodes.allocate(S_IFREG)
        child.size = size_bytes
        pages = max(1, (size_bytes + BLOCK_SIZE - 1) // BLOCK_SIZE)
        if size_bytes == 0:
            pages = 0
        if pages:
            child.blocks = self.allocator.allocate(pages)
        parent.add_entry(name, child.ino)
        self._grow_dir_blocks(parent)
        self.files_created += 1
        return child

    def _grow_dir_blocks(self, directory: Inode) -> None:
        """Ensure the directory has one block per page of entries."""
        needed = max(1, directory.num_pages())
        while len(directory.blocks) < needed:
            directory.blocks.extend(self.allocator.allocate(1))
