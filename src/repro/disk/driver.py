"""The instrumented device driver (driver-level profiling layer).

"In Linux, file system writes and asynchronous I/O requests return
immediately after scheduling the I/O request.  Therefore, their latency
contains no information about the associated I/O times.  To detect this
information, we instrumented a SCSI device driver; to do so we added
four calls to the aggregate_stats library" (Section 4).

:class:`ScsiDriver` is that layer: every request is profiled from
*dispatch to hardware completion* — regardless of whether the submitting
process waits — under operations ``disk_read`` / ``disk_write``.
"""

from __future__ import annotations

from typing import Optional

from ..core.pipeline import Pipeline, wire_probe
from ..core.profile import Layer
from ..core.profiler import Profiler
from ..sim.process import ProcBody
from ..sim.scheduler import Kernel
from .device import Disk, DiskRequest

__all__ = ["ScsiDriver"]


class ScsiDriver:
    """Profiled pass-through between file systems and the disk device.

    Attaches a completion listener to the device so that asynchronous
    writes — whose submitters never wait — are still measured dispatch
    to completion.
    """

    READ_OP = "disk_read"
    WRITE_OP = "disk_write"

    def __init__(self, kernel: Kernel, disk: Disk,
                 profiler: Optional[Profiler] = None,
                 pipeline: Optional[Pipeline] = None):
        self.kernel = kernel
        self.disk = disk
        if profiler is None:
            profiler = Profiler(name="scsi", layer=Layer.DRIVER,
                                clock=lambda: kernel.now)
        self.profiler = profiler
        if pipeline is None:
            pipeline = Pipeline()
        self.probe_point = wire_probe(pipeline, profiler.layer,
                                      profiler=profiler, name="driver")
        self.pipeline = pipeline
        disk.on_complete.append(self._completed)

    def _completed(self, request: DiskRequest) -> None:
        operation = self.WRITE_OP if request.is_write else self.READ_OP
        self.probe_point.record(operation, request.latency,
                          start=request.submitted_at,
                          context=request.context)

    # -- submission API mirroring the device ----------------------------------

    def _submit(self, block: int, is_write: bool) -> DiskRequest:
        request = self.disk.submit(block, is_write=is_write)
        # Attribute the I/O to the request whose generator is being
        # advanced right now: completion fires in a later event, when
        # the submitter (for async writes) may be long gone.
        proc = self.kernel.stepping
        if proc is not None:
            request.context = proc.request_context
        return request

    def submit_read(self, block: int) -> DiskRequest:
        """Dispatch a read without waiting (readahead-style)."""
        return self._submit(block, is_write=False)

    def submit_write(self, block: int) -> DiskRequest:
        """Dispatch an asynchronous write; profiled at completion."""
        return self._submit(block, is_write=True)

    def read(self, block: int) -> ProcBody:
        """Generator: synchronous profiled read."""
        request = self.submit_read(block)
        yield from self.disk.wait(request)
        return request

    def write(self, block: int) -> ProcBody:
        """Generator: synchronous profiled write."""
        request = self.submit_write(block)
        yield from self.disk.wait(request)
        return request

    def profile_set(self):
        return self.profiler.profile_set()
