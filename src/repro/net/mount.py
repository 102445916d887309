"""Assembling a CIFS client/server pair (the Section 6.4 testbed).

"We connected two identical machines ... with a 100Mbps Ethernet link
... The server ran Windows with an NTFS drive shared over CIFS."

:func:`build_cifs_mount` builds the whole testbed: a server-side file
tree, a Windows-like CIFS server, a TCP connection with a sniffer
attached, and a client :class:`~repro.system.System` whose mounted file
system is a :class:`~repro.net.cifs_client.CifsClient` of the requested
flavor.  The client system's inode table is shared with the server so
workloads can resolve the entries FIND transactions return.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional

from ..core.pipeline import wire_probe
from ..core.profile import Layer
from ..core.profiler import Profiler
from ..system import System
from ..vfs.inode import Inode
from ..workloads.sourcetree import TreeStats, build_source_tree
from .cifs_client import FLAVOR_WINDOWS, CifsClient
from .cifs_server import CifsServer
from .nfs import NfsClient, NfsServer
from .sniffer import Sniffer
from .tcp import TcpConnection, TcpEndpoint

__all__ = ["CifsMount", "build_cifs_mount"]


@dataclass
class CifsMount:
    """Everything the CIFS experiments need, in one place."""

    client: System
    server: CifsServer
    connection: TcpConnection
    sniffer: Sniffer
    root: Inode
    tree: TreeStats
    #: Network-level profiler fed by the client's ``rpc_*``/``smb_*``
    #: probe; None when the mount is built uninstrumented.
    net_profiler: Optional[Profiler] = None


def _wire_net_probe(client: System, instrumentation: str):
    """A NETWORK-layer probe on the client's machine-wide pipeline."""
    if instrumentation == "off":
        return None, None
    kernel = client.kernel
    profiler = Profiler(name="net", layer=Layer.NETWORK,
                        clock=lambda: kernel.engine.now)
    probe = wire_probe(client.pipeline, Layer.NETWORK,
                       profiler=profiler, name="net")
    client.procfs.register("net", profiler)
    return probe, profiler


def _build_mount(make_client: Callable, make_server: Callable,
                 scale: float, delayed_ack: bool, seed: int,
                 tree_seed: int, instrumentation: str) -> CifsMount:
    """Build client + server + link + shared tree for one protocol.

    ``make_client(kernel, endpoint, inodes, probe=...)`` builds the
    mounted client file system; ``make_server(kernel, inodes, endpoint)``
    the server answering it.
    """
    # The server's tree lives in a scratch System (its disk/scheduler
    # are unused; the server is event-driven with modelled service
    # times), built first so the client can share the inode table.
    server_host = System.build(fs_type="ext2", seed=seed + 1,
                               with_timer=False, instrumentation="off")
    root, stats = build_source_tree(server_host, scale=scale,
                                    seed=tree_seed)

    client = System.build(fs_type="ext2", seed=seed, with_timer=False,
                          instrumentation=instrumentation)
    # Replace the default ext2 with the network mount on the same kernel.
    sniffer = Sniffer()
    client_endpoint = TcpEndpoint("client", client.kernel,
                                  ack_immediately=not delayed_ack)
    server_endpoint = TcpEndpoint("server", client.kernel,
                                  ack_immediately=True)
    connection = TcpConnection(client.kernel, client_endpoint,
                               server_endpoint, sniffer=sniffer)
    net_probe, net_profiler = _wire_net_probe(client, instrumentation)
    fs = make_client(client.kernel, client_endpoint, server_host.inodes,
                     probe=net_probe)
    client.fs = fs
    client.vfs.fs = fs
    fs.bind(client.vfs)
    server = make_server(client.kernel, server_host.inodes,
                         server_endpoint)
    # Workloads resolve entry inos through the client system.
    client.inodes = server_host.inodes
    return CifsMount(client=client, server=server, connection=connection,
                     sniffer=sniffer, root=root, tree=stats,
                     net_profiler=net_profiler)


def build_cifs_mount(scale: float = 0.02,
                     flavor: str = FLAVOR_WINDOWS,
                     delayed_ack: bool = True,
                     seed: int = 2006,
                     tree_seed: int = 42,
                     instrumentation: str = "full") -> CifsMount:
    """Build client + server + link + shared tree.

    ``delayed_ack=False`` models the paper's registry change that turns
    off delayed ACKs on the Windows client (their ~20% elapsed-time
    approximation of the fix).  For the Linux flavor the endpoint ACKs
    immediately regardless.
    """
    return _build_mount(functools.partial(CifsClient, flavor=flavor),
                        CifsServer, scale, delayed_ack, seed, tree_seed,
                        instrumentation)


def build_nfs_mount(scale: float = 0.02,
                    delayed_ack: bool = True,
                    seed: int = 2006,
                    tree_seed: int = 42,
                    instrumentation: str = "full") -> CifsMount:
    """Build the same testbed with an NFS mount instead of CIFS.

    Returns the same :class:`CifsMount` record (the fields are
    protocol-agnostic).  The interesting comparison: even with
    ``delayed_ack=True`` on the client, NFS shows none of Figure 11's
    stalls, because the server streams its reply without waiting for
    acknowledgements.
    """
    return _build_mount(NfsClient, NfsServer, scale, delayed_ack, seed,
                        tree_seed, instrumentation)
