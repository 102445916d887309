"""Open file objects.

A :class:`File` is the ``struct file`` of the simulation: an inode
reference plus the per-open file position that ``llseek`` updates and
``read``/``readdir`` advance.  Note the position lives in the *file*,
not the process — which is precisely why the paper found it surprising
that ``generic_file_llseek`` grabbed an inode-wide semaphore just to
update it (Section 6.1).
"""

from __future__ import annotations

from .inode import Inode

__all__ = ["File", "O_DIRECT", "SEEK_SET", "SEEK_CUR", "SEEK_END"]

O_DIRECT = 0x4000

SEEK_SET = 0
SEEK_CUR = 1
SEEK_END = 2


class File:
    """An open file description: inode + position + flags.

    ``ra_last_page``/``ra_window`` hold the kernel's per-open readahead
    state: the last page synchronously read and the current readahead
    window (0 = not in a sequential streak).  ``fs_private`` belongs to
    the file system the file lives on.
    """

    __slots__ = ("inode", "pos", "flags", "closed", "ra_last_page",
                 "ra_window", "fs_private")

    def __init__(self, inode: Inode, flags: int = 0):
        self.inode = inode
        self.pos = 0
        self.flags = flags
        self.closed = False
        self.ra_last_page = -2  # not adjacent to any page
        self.ra_window = 0
        #: Per-open state owned by the mounted file system (e.g. a
        #: network FS's directory-listing buffer).  Keyed state MUST
        #: live here, not in an id(file)-keyed dict: ids are reused
        #: after garbage collection.
        self.fs_private = None

    @property
    def direct(self) -> bool:
        """True when opened with O_DIRECT (bypass the page cache)."""
        return bool(self.flags & O_DIRECT)

    def require_open(self) -> None:
        if self.closed:
            raise ValueError("operation on closed file")

    def seek(self, offset: int, whence: int) -> int:
        """Move the position the way ``llseek`` does; return it.

        A bad ``whence`` or a position before the start of the file
        raises :class:`ValueError` and leaves the position unchanged.
        """
        if whence == SEEK_SET:
            pos = offset
        elif whence == SEEK_CUR:
            pos = self.pos + offset
        elif whence == SEEK_END:
            pos = self.inode.size + offset
        else:
            raise ValueError(f"bad whence {whence}")
        if pos < 0:
            raise ValueError("seek before start of file")
        self.pos = pos
        return pos

    def __repr__(self) -> str:
        mode = " O_DIRECT" if self.direct else ""
        return f"<File ino={self.inode.ino} pos={self.pos}{mode}>"
