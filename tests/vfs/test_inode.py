"""Tests for inodes and the inode table."""

import pytest

from repro.sim.scheduler import Kernel
from repro.vfs.inode import (ENTRIES_PER_PAGE, BlockMap, Inode, InodeTable,
                             S_IFDIR, S_IFREG)


@pytest.fixture
def kernel():
    return Kernel(num_cpus=1, tsc_skew_seconds=0.0)


@pytest.fixture
def table(kernel):
    return InodeTable(kernel)


class TestInodeTable:
    def test_allocation_starts_at_two(self, table):
        inode = table.allocate(S_IFDIR)
        assert inode.ino == 2
        assert table.get(2) is inode

    def test_sequential_inos(self, table):
        a = table.allocate(S_IFREG)
        b = table.allocate(S_IFREG)
        assert b.ino == a.ino + 1
        assert len(table) == 2

    def test_dirty_inode_tracking(self, table, kernel):
        a = table.allocate(S_IFREG)
        table.allocate(S_IFREG)
        a.touch_atime(kernel.now)
        assert table.dirty_inodes() == [a]


class TestInode:
    def test_kind_validation(self, kernel):
        with pytest.raises(ValueError):
            Inode(kernel, 5, "socket")

    def test_file_page_count(self, table):
        f = table.allocate(S_IFREG)
        f.size = 4096 * 2 + 1
        assert f.num_pages() == 3
        f.size = 0
        assert f.num_pages() == 0

    def test_dir_page_count(self, table):
        d = table.allocate(S_IFDIR)
        for i in range(ENTRIES_PER_PAGE + 1):
            d.add_entry(f"f{i}", 100 + i)
        assert d.num_pages() == 2
        assert d.size == ENTRIES_PER_PAGE + 1

    def test_dir_page_entries_slicing(self, table):
        d = table.allocate(S_IFDIR)
        for i in range(ENTRIES_PER_PAGE + 5):
            d.add_entry(f"f{i}", 100 + i)
        page1 = d.dir_page_entries(1)
        assert len(page1) == 5
        assert page1[0].name == f"f{ENTRIES_PER_PAGE}"

    def test_entries_only_on_directories(self, table):
        f = table.allocate(S_IFREG)
        with pytest.raises(ValueError):
            f.add_entry("x", 1)
        with pytest.raises(ValueError):
            f.lookup_entry("x")
        with pytest.raises(ValueError):
            f.dir_page_entries(0)

    def test_lookup_entry(self, table):
        d = table.allocate(S_IFDIR)
        d.add_entry("hello", 42)
        assert d.lookup_entry("hello").ino == 42
        assert d.lookup_entry("nope") is None

    def test_block_for_range_checked(self, table):
        f = table.allocate(S_IFREG)
        f.blocks.append_run(10, 2)
        assert f.block_for(1) == 11
        with pytest.raises(ValueError):
            f.block_for(2)

    def test_touch_atime_dirties(self, table, kernel):
        f = table.allocate(S_IFREG)
        assert not f.dirty
        f.touch_atime(123.0)
        assert f.dirty
        assert f.atime == 123.0

    def test_each_inode_has_own_i_sem(self, table):
        a = table.allocate(S_IFREG)
        b = table.allocate(S_IFREG)
        assert a.i_sem is not b.i_sem
        assert a.i_sem.count == 1


class TestBlockMap:
    def test_empty(self):
        blocks = BlockMap()
        assert len(blocks) == 0
        assert not blocks
        assert list(blocks) == []
        assert blocks.runs() == []
        with pytest.raises(IndexError):
            blocks[0]

    def test_runs_map_pages_in_order(self):
        blocks = BlockMap()
        blocks.append_run(100, 3)
        blocks.append_run(7, 2)
        assert len(blocks) == 5
        assert list(blocks) == [100, 101, 102, 7, 8]
        assert [blocks[page] for page in range(5)] == list(blocks)
        assert blocks.runs() == [(100, 3), (7, 2)]

    def test_a_continuing_run_merges(self):
        blocks = BlockMap()
        blocks.append_run(10, 2)
        blocks.append_run(12, 1)
        blocks.append_run(14, 1)
        assert blocks.runs() == [(10, 3), (14, 1)]
        assert list(blocks) == [10, 11, 12, 14]

    def test_extend_appends_the_other_maps_runs(self):
        blocks, more = BlockMap(), BlockMap()
        blocks.append_run(0, 2)
        more.append_run(2, 1)
        more.append_run(9, 2)
        blocks.extend(more)
        assert blocks.runs() == [(0, 3), (9, 2)]
        assert more.runs() == [(2, 1), (9, 2)]

    def test_lookup_and_runs_are_checked(self):
        blocks = BlockMap()
        blocks.append_run(5, 2)
        for page in (-1, 2):
            with pytest.raises(IndexError):
                blocks[page]
        with pytest.raises(ValueError):
            blocks.append_run(9, 0)
