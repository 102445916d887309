"""A Windows file-system filter driver (the FileMon-based profiler).

"The Windows kernel-mode profiler is implemented as a file system
filter driver that stacks on top of local or remote file systems ...
Our file system profiler intercepts all IRPs and Fast I/O traffic that
is destined to local or remote file systems" (Section 4).

:class:`FilterDriver` stacks on a mounted file system the same way:
every operation is intercepted, classified as IRP or Fast I/O (reads on
an :class:`~repro.fs.ntfs.Ntfs` consult its dispatch decision; other
operations are IRPs), and profiled under ``IRP_<MAJOR>`` /
``FASTIO_<MAJOR>`` names — the MajorFunction-style labels a Windows
trace shows.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..core.pipeline import Pipeline, ProbePoint, wire_probe
from ..core.profile import Layer
from ..core.profiler import Profiler
from ..sim.process import ProcBody, Process
from ..sim.scheduler import Kernel
from ..vfs.file import File
from ..vfs.vfs import FileSystem
from .ntfs import Ntfs

__all__ = ["FilterDriver", "MAJOR_FUNCTIONS"]

#: Operation -> IRP MajorFunction name (the Windows I/O manager codes).
MAJOR_FUNCTIONS: Dict[str, str] = {
    "file_read": "MJ_READ",
    "file_write": "MJ_WRITE",
    "readdir": "MJ_DIRECTORY_CONTROL",
    "llseek": "MJ_SET_INFORMATION",
    "fsync": "MJ_FLUSH_BUFFERS",
    "create": "MJ_CREATE",
    "unlink": "MJ_SET_INFORMATION",
}


class FilterDriver:
    """Profiled interception of all I/O destined for one file system."""

    def __init__(self, kernel: Kernel, fs: FileSystem,
                 profiler: Optional[Profiler] = None,
                 pipeline: Optional[Pipeline] = None):
        self.kernel = kernel
        self.fs = fs
        if profiler is None:
            profiler = Profiler(name="filter", layer=Layer.FILESYSTEM,
                                clock=lambda: kernel.now)
        self.profiler = profiler
        if pipeline is None:
            pipeline = Pipeline(num_cpus=len(kernel.cpus))
        self.probe_point = wire_probe(pipeline, profiler.layer,
                                      profiler=profiler, name="filter")
        self.pipeline = pipeline
        self.irps_seen = 0
        self.fastio_seen = 0

    # -- interception ------------------------------------------------------------

    def _classify_read(self, file: File, size: int) -> str:
        if isinstance(self.fs, Ntfs) and \
                self.fs._page_resident(file, size):
            return "FASTIO"
        return "IRP"

    def _record(self, kind: str, major: str, latency: float,
                start: float = 0.0, context=None, cpu: int = 0) -> None:
        if kind == "FASTIO":
            self.fastio_seen += 1
        else:
            self.irps_seen += 1
        self.probe_point.record(f"{kind}_{major}", latency, start=start,
                          context=context, cpu=cpu)

    def _intercept(self, proc: Process, kind: str, major: str,
                   body: ProcBody) -> ProcBody:
        probe = self.probe_point
        context = probe.push_context(proc, f"{kind}_{major}") \
            if probe.active else None
        start = self.kernel.read_tsc(proc)
        try:
            result = yield from body
        finally:
            self._record(kind, major,
                         self.kernel.read_tsc(proc) - start,
                         start=start, context=context,
                         cpu=proc.cpu if proc.cpu is not None else 0)
            if context is not None:
                ProbePoint.pop_context(proc, context)
        return result

    # -- the intercepted operations ------------------------------------------------

    def read(self, proc: Process, file: File, size: int) -> ProcBody:
        kind = self._classify_read(file, size)
        return (yield from self._intercept(
            proc, kind, MAJOR_FUNCTIONS["file_read"],
            self.fs.file_read(proc, file, size)))

    def write(self, proc: Process, file: File, size: int) -> ProcBody:
        return (yield from self._intercept(
            proc, "IRP", MAJOR_FUNCTIONS["file_write"],
            self.fs.file_write(proc, file, size)))

    def readdir(self, proc: Process, file: File) -> ProcBody:
        return (yield from self._intercept(
            proc, "IRP", MAJOR_FUNCTIONS["readdir"],
            self.fs.readdir(proc, file)))

    def llseek(self, proc: Process, file: File, offset: int,
               whence: int) -> ProcBody:
        return (yield from self._intercept(
            proc, "FASTIO", MAJOR_FUNCTIONS["llseek"],
            self.fs.llseek(proc, file, offset, whence)))

    def fsync(self, proc: Process, file: File) -> ProcBody:
        return (yield from self._intercept(
            proc, "IRP", MAJOR_FUNCTIONS["fsync"],
            self.fs.fsync(proc, file)))

    # -- results ---------------------------------------------------------------------

    def profile_set(self):
        return self.profiler.profile_set()

    def fastio_share(self) -> float:
        total = self.irps_seen + self.fastio_seen
        if total == 0:
            return 0.0
        return self.fastio_seen / total
