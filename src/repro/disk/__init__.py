"""Disk substrate: geometry/timing, cache, device models, engine, driver.

The queue/completion engine (:class:`Disk`) fronts a pluggable
:class:`DeviceModel`.  The default :class:`SpindleModel` is the paper's
15 kRPM SCSI benchmark disk: 0.3 ms track-to-track seek, 8 ms full
stroke, 4 ms rotation, an internal track-readahead cache and an
elevator request queue.  :class:`SSDModel`, :class:`RAID0Model` and
:class:`ThrottledModel` open the scenario matrix beyond one spindle.
The instrumented driver (:class:`ScsiDriver`) profiles any of them
dispatch-to-completion.
"""

from .._lazy import lazy_exports

__all__ = ["SegmentCache", "DEFAULT_COMMAND_OVERHEAD", "Disk", "DiskRequest",
           "ScsiDriver", "BLOCK_SIZE", "DiskGeometry", "DeviceModel",
           "SpindleModel", "SSDModel", "RAID0Model", "ThrottledModel"]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".cache": ("SegmentCache",),
    ".device": ("DEFAULT_COMMAND_OVERHEAD", "Disk", "DiskRequest"),
    ".driver": ("ScsiDriver",),
    ".geometry": ("BLOCK_SIZE", "DiskGeometry"),
    ".model": ("DeviceModel", "RAID0Model", "SpindleModel", "SSDModel",
               "ThrottledModel"),
})
