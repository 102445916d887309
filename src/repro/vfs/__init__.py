"""VFS substrate: inodes, page cache, files, dispatch, instrumentation."""

from .._lazy import lazy_exports

__all__ = [
    "File", "O_DIRECT", "SEEK_CUR", "SEEK_END", "SEEK_SET",
    "OPERATION_VECTOR", "discover_operations", "instrument_filesystem",
    "uninstrument_filesystem",
    "BlockMap", "ENTRIES_PER_PAGE", "DirEntry", "Inode", "InodeTable",
    "S_IFDIR", "S_IFREG",
    "FsInstrument",
    "LLSEEK_BODY_COST", "generic_file_llseek", "generic_file_llseek_patched",
    "Page", "PageCache",
    "FileSystem", "VFS_DISPATCH_COST", "Vfs",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".file": ("File", "O_DIRECT", "SEEK_CUR", "SEEK_END", "SEEK_SET"),
    ".fosgen": ("OPERATION_VECTOR", "discover_operations",
                "instrument_filesystem", "uninstrument_filesystem"),
    ".inode": ("BlockMap", "ENTRIES_PER_PAGE", "DirEntry", "Inode",
               "InodeTable", "S_IFDIR", "S_IFREG"),
    ".instrument": ("FsInstrument",),
    ".llseek": ("LLSEEK_BODY_COST", "generic_file_llseek",
                "generic_file_llseek_patched"),
    ".pagecache": ("Page", "PageCache"),
    ".vfs": ("FileSystem", "VFS_DISPATCH_COST", "Vfs"),
})
