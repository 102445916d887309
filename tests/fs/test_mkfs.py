"""Tests for block allocation and tree building."""

import pytest

from repro.disk.geometry import BLOCK_SIZE, DiskGeometry
from repro.fs.mkfs import BlockAllocator, TreeBuilder
from repro.fs.namei import PathWalker
from repro.sim.rng import SimRandom
from repro.sim.scheduler import Kernel
from repro.vfs.inode import InodeTable


@pytest.fixture
def kernel():
    return Kernel(num_cpus=1, tsc_skew_seconds=0.0)


@pytest.fixture
def builder(kernel):
    geo = DiskGeometry(num_blocks=10_000)
    alloc = BlockAllocator(geo, SimRandom(1), fragmentation=0.0)
    return TreeBuilder(InodeTable(kernel), alloc)


class TestBlockAllocator:
    def test_sequential_without_fragmentation(self):
        alloc = BlockAllocator(DiskGeometry(num_blocks=100),
                               SimRandom(1), fragmentation=0.0)
        assert list(alloc.allocate(5)) == [0, 1, 2, 3, 4]
        assert list(alloc.allocate(2)) == [5, 6]
        assert alloc.free_space() == 93

    def test_fragmentation_leaves_gaps(self):
        alloc = BlockAllocator(DiskGeometry(num_blocks=100_000),
                               SimRandom(1), fragmentation=0.5)
        blocks = list(alloc.allocate(200))
        gaps = sum(1 for a, b in zip(blocks, blocks[1:]) if b != a + 1)
        assert gaps > 10

    def test_disk_full(self):
        alloc = BlockAllocator(DiskGeometry(num_blocks=3),
                               fragmentation=0.0)
        alloc.allocate(3)
        with pytest.raises(RuntimeError):
            alloc.allocate(1)

    def test_failed_allocation_leaves_accounting_alone(self):
        # The holes run the call off the disk part-way through: nothing
        # it walked over was handed out, so nothing is counted.
        alloc = BlockAllocator(DiskGeometry(num_blocks=100),
                               SimRandom(5), fragmentation=0.5)
        with pytest.raises(RuntimeError, match="disk full"):
            alloc.allocate(200)
        assert alloc.allocated == 0
        assert alloc.free_space() == 100
        assert list(alloc.allocate(3)) != []

    def test_validation(self):
        geo = DiskGeometry(num_blocks=10)
        with pytest.raises(ValueError):
            BlockAllocator(geo, fragmentation=1.5)
        alloc = BlockAllocator(geo, fragmentation=0.0)
        with pytest.raises(ValueError):
            alloc.allocate(0)


class TestTreeBuilder:
    def test_make_root(self, builder):
        root = builder.make_root()
        assert root.is_dir
        assert root.blocks
        assert builder.dirs_created == 1

    def test_mkdir_links_child(self, builder):
        root = builder.make_root()
        child = builder.mkdir(root, "sub")
        assert root.lookup_entry("sub").ino == child.ino
        assert child.is_dir

    def test_mkfile_sizes_and_blocks(self, builder):
        root = builder.make_root()
        f = builder.mkfile(root, "data", BLOCK_SIZE * 2 + 10)
        assert f.size == BLOCK_SIZE * 2 + 10
        assert len(f.blocks) == 3

    def test_empty_file_has_no_blocks(self, builder):
        root = builder.make_root()
        f = builder.mkfile(root, "empty", 0)
        assert list(f.blocks) == []

    def test_duplicate_names_rejected(self, builder):
        root = builder.make_root()
        builder.mkfile(root, "x", 1)
        with pytest.raises(FileExistsError):
            builder.mkfile(root, "x", 1)
        with pytest.raises(FileExistsError):
            builder.mkdir(root, "x")

    def test_directory_blocks_grow_with_entries(self, builder):
        root = builder.make_root()
        d = builder.mkdir(root, "big")
        for i in range(200):  # > 3 pages of entries
            builder.mkfile(d, f"f{i}", 10)
        assert len(d.blocks) >= d.num_pages()

    def test_mkfile_in_file_rejected(self, builder):
        root = builder.make_root()
        f = builder.mkfile(root, "f", 10)
        with pytest.raises(ValueError):
            builder.mkfile(f, "sub", 10)


class TestPathWalker:
    def test_walk_resolves_nested_path(self, kernel, builder):
        root = builder.make_root()
        sub = builder.mkdir(root, "a")
        leaf = builder.mkfile(sub, "b.txt", 10)
        walker = PathWalker(kernel, builder.inodes, root)

        def body(proc):
            inode = yield from walker.walk(proc, "/a/b.txt")
            return inode

        p = kernel.spawn(body, "w")
        kernel.run_until_done([p])
        assert p.exit_value is leaf

    def test_walk_missing_component(self, kernel, builder):
        root = builder.make_root()
        walker = PathWalker(kernel, builder.inodes, root)

        def body(proc):
            yield from walker.walk(proc, "/ghost")

        kernel.spawn(body, "w")
        with pytest.raises(KeyError):
            kernel.run(max_events=200)

    def test_walk_through_file_rejected(self, kernel, builder):
        root = builder.make_root()
        builder.mkfile(root, "f", 10)
        walker = PathWalker(kernel, builder.inodes, root)

        def body(proc):
            yield from walker.walk(proc, "/f/deeper")

        kernel.spawn(body, "w")
        with pytest.raises(NotADirectoryError):
            kernel.run(max_events=200)

    def test_exists_non_simulated(self, kernel, builder):
        root = builder.make_root()
        sub = builder.mkdir(root, "a")
        builder.mkfile(sub, "b", 1)
        walker = PathWalker(kernel, builder.inodes, root)
        assert walker.exists("/a/b")
        assert not walker.exists("/a/c")
        assert not walker.exists("/a/b/c")

    def test_split(self):
        assert PathWalker.split("/a//b/") == ["a", "b"]
        assert PathWalker.split("") == []
