"""File systems: ext2-like, reiserfs-like, path walking, mkfs, bdflush."""

from .._lazy import lazy_exports

__all__ = ["DATA_PERIOD", "METADATA_PERIOD", "make_flush_daemons",
           "Ext2", "Ext3", "READDIR_CHUNK", "BlockAllocator", "TreeBuilder",
           "LOOKUP_COMPONENT_COST", "PathWalker", "Reiserfs",
           "MAJOR_FUNCTIONS", "FilterDriver",
           "FASTIO_OVERHEAD", "IRP_OVERHEAD", "Ntfs"]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".bdflush": ("DATA_PERIOD", "METADATA_PERIOD", "make_flush_daemons"),
    ".ext2": ("Ext2", "READDIR_CHUNK"),
    ".ext3": ("Ext3",),
    ".mkfs": ("BlockAllocator", "TreeBuilder"),
    ".filterdrv": ("MAJOR_FUNCTIONS", "FilterDriver"),
    ".namei": ("LOOKUP_COMPONENT_COST", "PathWalker"),
    ".ntfs": ("FASTIO_OVERHEAD", "IRP_OVERHEAD", "Ntfs"),
    ".reiserfs": ("Reiserfs",),
})
