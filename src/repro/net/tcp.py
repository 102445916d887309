"""A TCP model with delayed acknowledgements (Section 6.4, Figure 11).

Only the mechanisms behind the paper's CIFS pathology are modelled:

* serialization (100 Mbps link) + propagation (~56 us one way, the
  paper's 112 us RTT),
* cumulative ACKs with the standard **delayed-ACK** policy: an ACK for a
  lone data segment is withheld up to 200 ms in the hope of piggybacking
  on outgoing data; a second unacknowledged segment forces an immediate
  ACK,
* piggybacking: any outgoing data segment carries the pending ACK, and
* sender-side "all data acknowledged" notifications — what the Windows
  CIFS server waits on before continuing a transaction.

No reordering or congestion control: the paper's testbed was an idle
switched LAN and the pathology is purely timer-driven.  Optional *loss
injection* (``TcpConnection(loss_rate=...)``) drops data segments and
retransmits them after an RTO, for failure-injection experiments.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from ..sim.engine import seconds
from ..sim.process import Condition
from ..sim.rng import SimRandom
from ..sim.scheduler import Kernel

__all__ = ["Packet", "TcpEndpoint", "TcpConnection", "DELAYED_ACK_TIMEOUT",
           "MAX_SEGMENT", "DEFAULT_RTO"]

#: Standard delayed-ACK timer ("Most implementations wait 200ms").
DELAYED_ACK_TIMEOUT = seconds(200e-3)

#: Ethernet MSS.
MAX_SEGMENT = 1460

#: One-way propagation delay (half the paper's 112 us RTT).
DEFAULT_LATENCY = seconds(56e-6)

#: 100 Mbps in cycles per byte at 1.7 GHz: 8 bits / 1e8 bps * 1.7e9.
DEFAULT_CYCLES_PER_BYTE = 8.0 / 1e8 * 1.7e9

#: Retransmission timeout for lost segments (~RFC minimum RTO scale).
DEFAULT_RTO = seconds(0.3)


class Packet:
    """One TCP segment (data and/or ACK)."""

    __slots__ = ("src", "dst", "size", "describe", "payload", "is_data",
                 "ack_through", "sent_at", "delivered_at", "seq")

    def __init__(self, src: str, dst: str, size: int, describe: str,
                 payload: Any = None, is_data: bool = True,
                 ack_through: int = 0):
        self.src = src
        self.dst = dst
        self.size = size
        self.describe = describe
        self.payload = payload
        self.is_data = is_data
        self.ack_through = ack_through
        self.sent_at = 0.0
        self.delivered_at = 0.0
        self.seq = 0

    def __repr__(self) -> str:
        kind = "data" if self.is_data else "ack"
        return (f"<Packet {self.src}->{self.dst} {kind} "
                f"{self.describe!r} {self.size}B>")


class TcpEndpoint:
    """One side of a connection: receive path, ACK policy, send path."""

    def __init__(self, name: str, kernel: Kernel,
                 ack_immediately: bool = False):
        self.name = name
        self.kernel = kernel
        #: Disabling delayed ACKs (the registry change the paper tried)
        #: or a Linux-style stack that always has data to send.
        self.ack_immediately = ack_immediately
        self.connection: Optional["TcpConnection"] = None
        self.on_receive: Optional[Callable[[Packet], None]] = None
        # Receive-side ACK state.
        self.segments_received = 0
        self.acked_through = 0
        self._delayed_ack_event = None
        # Send-side state.
        self.segments_sent = 0
        self.peer_acked_through = 0
        self._acked_waiters: List[Callable[[], None]] = []
        # Stats.
        self.delayed_acks_sent = 0
        self.immediate_acks_sent = 0
        self.piggybacked_acks = 0

    # -- sending -----------------------------------------------------------

    def send(self, size: int, describe: str, payload: Any = None) -> Packet:
        """Transmit a data segment, piggybacking any pending ACK."""
        assert self.connection is not None, "endpoint not connected"
        packet = Packet(self.name, self._peer().name, size, describe,
                        payload=payload, is_data=True,
                        ack_through=self.segments_received)
        if self._cancel_delayed_ack():
            self.piggybacked_acks += 1
        self.acked_through = self.segments_received
        self.segments_sent += 1
        self.connection.transmit(self, packet)
        return packet

    def when_all_acked(self, fn: Callable[[], None]) -> None:
        """Call *fn* once every sent segment has been acknowledged."""
        if self.peer_acked_through >= self.segments_sent:
            fn()
        else:
            self._acked_waiters.append(fn)

    # -- receiving ------------------------------------------------------------

    def _peer(self) -> "TcpEndpoint":
        assert self.connection is not None
        return self.connection.other(self)

    def deliver(self, packet: Packet) -> None:
        """Called by the connection when a segment arrives."""
        if packet.ack_through > self.peer_acked_through:
            self.peer_acked_through = packet.ack_through
            if self.peer_acked_through >= self.segments_sent:
                waiters, self._acked_waiters = self._acked_waiters, []
                for fn in waiters:
                    fn()
        if packet.is_data:
            self.segments_received += 1
            self._consider_ack()
            if self.on_receive is not None:
                self.on_receive(packet)

    def _consider_ack(self) -> None:
        outstanding = self.segments_received - self.acked_through
        if outstanding <= 0:
            return
        if self.ack_immediately or outstanding >= 2:
            self._send_ack(delayed=False)
            return
        if self._delayed_ack_event is None:
            self._delayed_ack_event = self.kernel.engine.schedule(
                DELAYED_ACK_TIMEOUT, self._delayed_ack_fired)

    def _delayed_ack_fired(self) -> None:
        self._delayed_ack_event = None
        if self.segments_received > self.acked_through:
            self._send_ack(delayed=True)

    def _send_ack(self, delayed: bool) -> None:
        assert self.connection is not None
        self._cancel_delayed_ack()
        self.acked_through = self.segments_received
        if delayed:
            self.delayed_acks_sent += 1
        else:
            self.immediate_acks_sent += 1
        packet = Packet(self.name, self._peer().name, 40,
                        "ACK" + (" (delayed)" if delayed else ""),
                        is_data=False, ack_through=self.acked_through)
        self.connection.transmit(self, packet)

    def _cancel_delayed_ack(self) -> bool:
        if self._delayed_ack_event is not None:
            self.kernel.engine.cancel(self._delayed_ack_event)
            self._delayed_ack_event = None
            return True
        return False


class TcpConnection:
    """A bidirectional link between two endpoints."""

    def __init__(self, kernel: Kernel, a: TcpEndpoint, b: TcpEndpoint,
                 latency: float = DEFAULT_LATENCY,
                 cycles_per_byte: float = DEFAULT_CYCLES_PER_BYTE,
                 sniffer=None,
                 loss_rate: float = 0.0,
                 rto: float = DEFAULT_RTO,
                 rng: Optional[SimRandom] = None):
        if a.name == b.name:
            raise ValueError("endpoints must have distinct names")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        self.kernel = kernel
        self.a = a
        self.b = b
        self.latency = latency
        self.cycles_per_byte = cycles_per_byte
        self.sniffer = sniffer
        #: Failure injection: each data segment is dropped with this
        #: probability and retransmitted after ``rto``.  The timer and
        #: resend are modelled jointly (the simulator knows the drop),
        #: which preserves exactly what OSprof observes: the latency.
        self.loss_rate = loss_rate
        self.rto = rto
        self.rng = rng if rng is not None else kernel.rng.fork("tcp")
        self.packets_lost = 0
        self.retransmissions = 0
        self.packets_transmitted = 0
        a.connection = self
        b.connection = self
        # Per-direction serialization: the NIC finishes one segment
        # before the next leaves (FIFO per sender).
        self._link_free_at: Dict[str, float] = {a.name: 0.0, b.name: 0.0}

    def other(self, endpoint: TcpEndpoint) -> TcpEndpoint:
        if endpoint is self.a:
            return self.b
        if endpoint is self.b:
            return self.a
        raise ValueError("endpoint not part of this connection")

    def transmit(self, sender: TcpEndpoint, packet: Packet) -> None:
        now = self.kernel.engine.now
        start = max(now, self._link_free_at[sender.name])
        serialization = packet.size * self.cycles_per_byte
        done_sending = start + serialization
        self._link_free_at[sender.name] = done_sending
        packet.sent_at = now
        self.packets_transmitted += 1
        packet.seq = self.packets_transmitted
        receiver = self.other(sender)

        if (self.loss_rate > 0 and packet.is_data
                and self.rng.chance(self.loss_rate)):
            # Dropped on the wire; the sender's RTO fires and the
            # segment is retransmitted (possibly lost again).
            self.packets_lost += 1

            def retransmit() -> None:
                self.retransmissions += 1
                self.transmit(sender, packet)

            self.kernel.engine.schedule(self.rto, retransmit)
            return

        arrival = done_sending + self.latency

        def arrive() -> None:
            packet.delivered_at = self.kernel.engine.now
            if self.sniffer is not None:
                self.sniffer.capture(packet)
            receiver.deliver(packet)

        self.kernel.engine.schedule_at(arrival, arrive)
