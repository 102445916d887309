"""Network substrate: TCP with delayed ACKs, SMB/CIFS, packet sniffer."""

from .._lazy import lazy_exports

__all__ = [
    "FLAVOR_LINUX", "FLAVOR_WINDOWS", "CifsClient", "CifsServer",
    "CifsMount", "build_cifs_mount", "build_nfs_mount",
    "ATTR_CACHE_TTL", "NFS_MAX_READ", "NfsClient", "NfsServer",
    "ENTRY_WIRE_SIZE", "FIND_BATCH", "DirEntryInfo", "FindFirstRequest",
    "FindNextRequest", "FindReply", "ReadReply", "ReadRequest",
    "CapturedPacket", "Sniffer", "render_timeline",
    "DELAYED_ACK_TIMEOUT", "MAX_SEGMENT", "Packet", "TcpConnection",
    "TcpEndpoint",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".cifs_client": ("FLAVOR_LINUX", "FLAVOR_WINDOWS", "CifsClient"),
    ".cifs_server": ("CifsServer",),
    ".mount": ("CifsMount", "build_cifs_mount", "build_nfs_mount"),
    ".nfs": ("ATTR_CACHE_TTL", "NFS_MAX_READ", "NfsClient", "NfsServer"),
    ".smb": ("ENTRY_WIRE_SIZE", "FIND_BATCH", "DirEntryInfo",
             "FindFirstRequest", "FindNextRequest", "FindReply", "ReadReply",
             "ReadRequest"),
    ".sniffer": ("CapturedPacket", "Sniffer", "render_timeline"),
    ".tcp": ("DELAYED_ACK_TIMEOUT", "MAX_SEGMENT", "Packet", "TcpConnection",
             "TcpEndpoint"),
})
