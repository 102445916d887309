"""Tests for the NFS client/server pair."""

import pytest

from repro.net import build_cifs_mount, build_nfs_mount
from repro.net.nfs import NFS_MAX_READ
from repro.sim.engine import seconds
from repro.vfs.file import SEEK_CUR, SEEK_END, SEEK_SET
from repro.workloads import run_grep


@pytest.fixture(scope="module")
def nfs_mount():
    mount = build_nfs_mount(scale=0.01, delayed_ack=True)
    run_grep(mount.client, mount.root)
    return mount


class TestCorrectness:
    def test_grep_scans_whole_tree(self, nfs_mount):
        assert nfs_mount.tree.files > 0
        # grep counted every file the tree builder created; reuse its
        # numbers through a fresh run for isolation.
        m = build_nfs_mount(scale=0.005)
        result = run_grep(m.client, m.root)
        assert result.files == m.tree.files
        assert result.bytes_scanned == m.tree.total_bytes

    def test_same_results_as_cifs(self):
        nfs = build_nfs_mount(scale=0.005)
        r_nfs = run_grep(nfs.client, nfs.root)
        cifs = build_cifs_mount(scale=0.005, flavor="linux")
        r_cifs = run_grep(cifs.client, cifs.root)
        assert r_nfs.files == r_cifs.files
        assert r_nfs.bytes_scanned == r_cifs.bytes_scanned


class TestNoDelayedAckPathology:
    def test_no_stalls_despite_delayed_ack_client(self, nfs_mount):
        # The structural claim: the NFS server never waits for ACKs,
        # so the Windows-client delayed-ACK timer has nothing to stall.
        assert nfs_mount.sniffer.stalls(0.15) == []

    def test_no_far_right_peaks(self, nfs_mount):
        pset = nfs_mount.client.fs_profiles()
        for op in ("nfs_readdir", "nfs_read"):
            prof = pset.get(op)
            if prof is not None:
                assert all(b < 27 for b in prof.counts())

    def test_cifs_windows_slower_than_nfs(self):
        nfs = build_nfs_mount(scale=0.01, delayed_ack=True)
        run_grep(nfs.client, nfs.root)
        cifs = build_cifs_mount(scale=0.01, flavor="windows",
                                delayed_ack=True)
        run_grep(cifs.client, cifs.root)
        assert nfs.client.elapsed_seconds() < \
            cifs.client.elapsed_seconds()


class TestClientCaches:
    def test_rereads_hit_client_page_cache(self):
        m = build_nfs_mount(scale=0.005)
        run_grep(m.client, m.root)
        rpcs_first = m.client.fs.rpcs_sent
        run_grep(m.client, m.root)  # everything now cached
        rpcs_second = m.client.fs.rpcs_sent - rpcs_first
        # Second pass: no READ RPCs (pages cached); READDIRs are
        # re-issued per new directory handle.
        assert rpcs_second < rpcs_first / 2

    def test_attr_cache_ttl(self):
        m = build_nfs_mount(scale=0.005)
        client = m.client.fs

        def body(proc):
            yield from client.getattr(proc, m.root.ino)
            yield from client.getattr(proc, m.root.ino)  # cached
            return None

        p = m.client.kernel.spawn(body, "stat")
        m.client.run([p])
        assert client.attr_hits == 1

    def test_read_rpc_bounded_by_protocol_max(self, nfs_mount):
        # Every READ call asked for at most NFS_MAX_READ bytes: the
        # reply wire size is bounded accordingly.
        big = [p for p in nfs_mount.sniffer.packets
               if "READ reply" in p.describe]
        assert big, "some reads went over the wire"
        # reply payload <= header + one page (we request page-sized).
        assert all(p.size <= 1460 for p in big)


class TestReaddirCookies:
    def test_large_directory_paginates(self):
        m = build_nfs_mount(scale=0.01)
        # Find a directory with more entries than one READDIR batch.
        big_dirs = [i for i in m.client.inodes._inodes.values()
                    if i.is_dir and len(i.entries) > 64]
        if not big_dirs:
            pytest.skip("tree has no large directory at this scale")
        directory = big_dirs[0]
        handle = m.client.vfs.open_inode(directory)
        collected = []

        def body(proc):
            while True:
                entries = yield from m.client.vfs.readdir(proc, handle)
                if not entries:
                    return None
                collected.extend(entries)

        p = m.client.kernel.spawn(body, "ls")
        m.client.run([p])
        assert len(collected) == len(directory.entries)
        assert [e.name for e in collected] == \
            [e.name for e in directory.entries]


class TestLlseekValidation:
    """A network mount rejects a negative position like ext2 and NTFS."""

    @pytest.mark.parametrize("build", [build_nfs_mount, build_cifs_mount],
                             ids=["nfs", "cifs"])
    @pytest.mark.parametrize("offset, whence", [(-5, SEEK_SET),
                                                (-10, SEEK_CUR),
                                                (-1_000_000, SEEK_END)])
    def test_negative_position_raises_and_keeps_pos(self, build, offset,
                                                   whence):
        m = build(scale=0.005)
        inode = next(i for i in m.client.inodes._inodes.values()
                     if not i.is_dir and i.size > 0)
        handle = m.client.vfs.open_inode(inode)
        handle.pos = 3

        def body(proc):
            yield from m.client.vfs.llseek(proc, handle, offset, whence)

        p = m.client.kernel.spawn(body, "seek")
        with pytest.raises(ValueError, match="before start of file"):
            m.client.run([p])
        assert handle.pos == 3
