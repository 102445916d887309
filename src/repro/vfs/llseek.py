"""``generic_file_llseek``: the Section 6.1 case study.

The Linux-provided llseek method — "used by most of the Linux file
systems including Ext2 and Ext3" — updates the per-open file position,
but in 2.6.11 it did so while holding the inode's ``i_sem``.  Two
processes randomly reading the same file with O_DIRECT therefore
contend: one process's llseek waits for the other's direct-I/O read
(which holds ``i_sem`` across the disk access), producing an llseek
profile whose right peak mirrors the read profile.

The paper's fix — "to be consistent with the semantics of other Linux
VFS methods, we need only protect directory objects and not file
objects" — cut the uncontended path from ~400 to ~120 cycles (~70%).
Both variants are implemented; a kernel is built with one or the other.
"""

from __future__ import annotations

from ..sim.process import CpuBurst, ProcBody, Process
from ..sim.scheduler import Kernel
from .file import SEEK_CUR, SEEK_END, SEEK_SET, File

__all__ = ["generic_file_llseek", "generic_file_llseek_patched",
           "LLSEEK_BODY_COST"]

#: CPU cost of the position arithmetic itself (the patched fast path);
#: with two ~125-cycle semaphore calls around it the unpatched
#: uncontended path is ~360 cycles — the paper's 400 -> 120 ratio.
LLSEEK_BODY_COST = 110.0


def _update_position(kernel: Kernel, proc: Process, file: File,
                     offset: int, whence: int) -> ProcBody:
    cycles = kernel.rng.jitter(LLSEEK_BODY_COST)
    if not kernel.burn(proc, cycles):
        yield CpuBurst(cycles)
    if whence == SEEK_SET:
        new_pos = offset
    elif whence == SEEK_CUR:
        new_pos = file.pos + offset
    elif whence == SEEK_END:
        new_pos = file.inode.size + offset
    else:
        raise ValueError(f"bad whence {whence}")
    if new_pos < 0:
        raise ValueError("seek before start of file")
    file.pos = new_pos
    return new_pos


def generic_file_llseek(kernel: Kernel, proc: Process, file: File,
                        offset: int, whence: int = SEEK_SET) -> ProcBody:
    """The 2.6.11 behaviour: take ``i_sem`` for *every* object."""
    file.require_open()
    sem = file.inode.i_sem
    yield from sem.acquire(proc)
    try:
        new_pos = yield from _update_position(kernel, proc, file,
                                              offset, whence)
    finally:
        yield from sem.release(proc)
    return new_pos


def generic_file_llseek_patched(kernel: Kernel, proc: Process, file: File,
                                offset: int,
                                whence: int = SEEK_SET) -> ProcBody:
    """The submitted fix: serialize only directory position updates."""
    file.require_open()
    if file.inode.is_dir:
        return (yield from generic_file_llseek(kernel, proc, file,
                                               offset, whence))
    new_pos = yield from _update_position(kernel, proc, file, offset,
                                          whence)
    return new_pos
