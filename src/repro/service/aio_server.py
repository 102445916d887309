"""The service transport: one event-loop thread, thousands of collectors.

:class:`AsyncProfileServer` serves a
:class:`~repro.service.server.ProfileService` (or a relay) from a
single-threaded ``asyncio`` event loop: sockets are read non-blocking
in 64 KiB chunks, frames are cut out of the stream by the sans-IO
incremental :class:`~repro.service.protocol.FrameParser` (header-only
size guard, zero-copy ``memoryview`` payload slicing), and each frame
is answered by a lookup in the service's sans-IO frame table
(:data:`~repro.service.server.FRAME_HANDLERS`) — microseconds of
histogram merging per push, so one loop absorbs the fleet.  It is the
ingest gate of the root and of every relay alike, with these hardening
semantics (knobs from the service's ``config``, counters its own):

* per-connection **read timeouts** (a timer armed while parked on a
  read; an idle or wedged peer is dropped and counted),
* the **max-frame guard** (judged from the 9 header bytes alone, the
  oversized payload is never buffered; the peer gets an ``ERROR``),
* bounded-slot **RETRY_AFTER backpressure** through ``ingest_slots``
  (``max_pending`` of them), for the frames the table marks ``gated``:
  a connection claims one slot per batch of replies, at its first
  gated frame, and holds it until the batch is written,
* **graceful drain** (stop accepting, wait for in-flight connections,
  cancel stragglers after a timeout and count them — an acked push is
  always already merged, because the ack is produced after the
  synchronous ingest),
* the service's **metrics** page, plus the gate's and loop's own.

Every complete frame already parsed is dispatched before the next
``read()`` is issued, and the replies of one read go out as one
``write`` and one ``drain()``: a client pipelining eight pushes is
woken once, not eight times.  Memory stays bounded under pipelining by
construction: a connection buffers at most one read chunk plus one
partial frame of requests, and at most :data:`READ_CHUNK` bytes plus
one reply of unwritten replies (a batch is written early once it
reaches :data:`READ_CHUNK`) — there is no unbounded queue to fill.

The server runs its loop on a daemon thread started by
``serve_in_thread()`` (the CLI, tests, embedding); the public surface
is then ``address``, ``active_connections``, ``drain(timeout)`` and
``server_close()``.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import socket
import threading
from typing import Dict, List, Optional, Tuple

from .protocol import (MAGIC, FrameParser, FrameTooLarge, FrameType,
                       ProtocolError, encode_retry_after, _HEADER)
from .server import FRAME_HANDLERS, FrameHandler, ProfileService, Reply

__all__ = ["AsyncProfileServer", "READ_CHUNK"]

#: Bytes asked of the socket per read; with the parser's partial-frame
#: carry this bounds a connection's buffer at READ_CHUNK + header +
#: max_frame_bytes.
READ_CHUNK = 1 << 16


class _Batch:
    """One connection's replies not yet written, and the slot they hold.

    Every frame parsed out of one read is answered into the batch; the
    batch goes out as one ``write`` before the next read (or early, once
    it holds :data:`READ_CHUNK` bytes).
    """

    __slots__ = ("frames", "nbytes", "slot")

    def __init__(self):
        self.frames: List[bytes] = []
        self.nbytes = 0
        self.slot = False

    def add(self, ftype: int, payload: bytes) -> None:
        frame = _HEADER.pack(MAGIC, ftype, len(payload)) + payload
        self.frames.append(frame)
        self.nbytes += len(frame)


class AsyncProfileServer:
    """Asyncio front end over a :class:`ProfileService` (or relay).

    ``port=0`` picks a free port, published via :attr:`address` once
    the listener is up.  :meth:`serve_in_thread` runs the loop on a
    daemon thread, for the CLI and embedders alike; :meth:`drain` and
    :meth:`server_close` are thread-safe.
    """

    def __init__(self, service: Optional[ProfileService] = None,
                 host: str = "127.0.0.1", port: int = 0):
        self.service = service if service is not None else ProfileService()
        self._host = host
        self._port = port
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._address: Optional[Tuple[str, int]] = None
        self._started = threading.Event()
        self._stop: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None
        self._conn_tasks: set = set()
        self._startup_error: Optional[BaseException] = None
        #: The bounded ingest slots gated frames run under.
        self.ingest_slots = threading.BoundedSemaphore(
            self.service.config.max_pending)
        # Transport counters and gauges (loop-thread only; read racily
        # by metrics, which is fine for monotone counters).
        self.backpressure_rejections = 0
        self.frames_oversize = 0
        self.read_timeouts = 0
        self.connections_total = 0
        self.max_parser_buffered = 0
        self.max_reply_buffered = 0
        #: Connections the last :meth:`drain` had to cancel.
        self.drain_cancelled = 0
        #: The frames this transport answers: the service's table, and
        #: METRICS answered by the page that adds the transport's own.
        self.handlers: Dict[int, FrameHandler] = {
            **FRAME_HANDLERS, FrameType.METRICS: FrameHandler(self._metrics)}

    # -- lifecycle ---------------------------------------------------------

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            self._server = await asyncio.start_server(
                self._handle_connection, self._host, self._port)
        except Exception as exc:
            # OSError for a taken port, OverflowError for one out of
            # range: either way the caller raises it, not the loop.
            self._startup_error = exc
            self._started.set()
            return
        sock = self._server.sockets[0]
        self._address = sock.getsockname()[:2]
        self._started.set()
        try:
            await self._stop.wait()
        finally:
            self._server.close()
            await self._server.wait_closed()

    def serve_in_thread(self) -> threading.Thread:
        """Start serving on a daemon thread; returns once bound.

        A failure to bind raises here, and the thread ends quietly.
        """
        self._thread = threading.Thread(target=asyncio.run,
                                        args=(self._main(),),
                                        name="osprof-aio-serve",
                                        daemon=True)
        self._thread.start()
        self._started.wait(timeout=10.0)
        if self._startup_error is not None:
            raise self._startup_error
        return self._thread

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port) — real even if port 0 was asked."""
        self._started.wait(timeout=10.0)
        if self._address is None:
            raise RuntimeError("server is not listening")
        return self._address

    @property
    def active_connections(self) -> int:
        return len(self._conn_tasks)

    def _call_threadsafe(self, coro, timeout: float):
        if self._loop is None or not self._loop.is_running():
            return None
        future = asyncio.run_coroutine_threadsafe(coro, self._loop)
        try:
            return future.result(timeout)
        except (TimeoutError, concurrent.futures.TimeoutError):
            future.cancel()
            return None

    def drain(self, timeout: float = 5.0) -> bool:
        """Graceful shutdown: stop accepting, wait for in-flight peers.

        Returns True if every connection finished inside *timeout*;
        stragglers (idle watchers parked on a read) are cancelled and
        counted in :attr:`drain_cancelled` — every push they were acked
        for is already merged, so nothing acknowledged is ever lost.
        Callable from any thread.
        """
        if self._loop is None:
            return True
        if threading.current_thread() is not self._thread \
                and self._loop.is_running():
            result = self._call_threadsafe(self._drain_async(timeout),
                                           timeout + 5.0)
            return bool(result)
        return True

    async def _drain_async(self, timeout: float) -> bool:
        self.drain_cancelled = 0
        if self._server is not None:
            self._server.close()
        deadline = self._loop.time() + max(timeout, 0.0)
        while self._conn_tasks:
            remaining = deadline - self._loop.time()
            if remaining <= 0:
                self.drain_cancelled = len(self._conn_tasks)
                for task in list(self._conn_tasks):
                    task.cancel()
                await asyncio.gather(*self._conn_tasks,
                                     return_exceptions=True)
                return False
            await asyncio.wait(list(self._conn_tasks),
                               timeout=remaining,
                               return_when=asyncio.ALL_COMPLETED)
        return True

    def server_close(self) -> None:
        """Stop the loop and join the serving thread (if any)."""
        if self._loop is not None and self._loop.is_running():
            def _stop_now():
                for task in list(self._conn_tasks):
                    task.cancel()
                self._stop.set()
            self._loop.call_soon_threadsafe(_stop_now)
        if self._thread is not None \
                and self._thread is not threading.current_thread():
            self._thread.join(timeout=10.0)

    # -- the per-connection loop -------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        self.connections_total += 1
        sock = writer.get_extra_info("socket")
        if sock is not None and sock.family != socket.AF_UNIX:
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass
        try:
            await self._connection_loop(reader, writer)
        except asyncio.CancelledError:
            pass
        finally:
            self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, asyncio.CancelledError):
                pass

    async def _connection_loop(self, reader: asyncio.StreamReader,
                               writer: asyncio.StreamWriter) -> None:
        config = self.service.config
        parser = FrameParser(max_payload=config.max_frame_bytes)
        read_timeout = config.read_timeout
        loop = asyncio.get_running_loop()
        task = asyncio.current_task()
        batch = _Batch()
        # The idle guard: a plain timer handle armed only while parked
        # on a read.  ``asyncio.wait_for`` would wrap every read in a
        # fresh Task — at fleet ingest rates that wrapper dominates the
        # loop, so the timeout is a heap entry instead, cancelled for
        # free whenever data arrives in time.
        timed_out = [False]

        def _idle_expired():
            timed_out[0] = True
            task.cancel()

        try:
            while True:
                # Dispatch every frame already buffered before reading
                # more, and answer them all with one write: pipelined
                # requests are answered from the buffer, never queued
                # beside it, and cost one send per read, not per frame.
                try:
                    frame = parser.next_frame()
                except FrameTooLarge as exc:
                    # Reject from the header alone; tell the peer why,
                    # then drop the stream (its payload bytes would
                    # desync us).
                    self.frames_oversize += 1
                    batch.add(FrameType.ERROR, str(exc).encode("utf-8"))
                    await self._write_batch(writer, batch)
                    return
                except ProtocolError:
                    # A desynchronized stream: answer what came before
                    # it, then drop the connection.
                    await self._write_batch(writer, batch)
                    return
                if frame is not None:
                    ftype, payload = frame
                    try:
                        self._dispatch(batch, ftype, payload)
                    except ProtocolError:
                        await self._write_batch(writer, batch)
                        return
                    except ValueError as exc:
                        batch.add(FrameType.ERROR, str(exc).encode("utf-8"))
                    if batch.nbytes >= READ_CHUNK:
                        # A read of small requests can ask for large
                        # replies: bound what waits unwritten.
                        if not await self._write_batch(writer, batch):
                            return
                    continue
                if batch.frames:
                    if not await self._write_batch(writer, batch):
                        return
                guard = loop.call_later(read_timeout, _idle_expired)
                try:
                    chunk = await reader.read(READ_CHUNK)
                except asyncio.CancelledError:
                    if timed_out[0]:
                        self.read_timeouts += 1
                        return  # idle or wedged peer: reclaim the slot
                    raise  # a real cancellation (drain/close), not ours
                except OSError:
                    return  # peer vanished between frames
                finally:
                    guard.cancel()
                if not chunk:
                    return  # EOF (mid-frame or not, the stream is over)
                parser.feed(chunk)
                if parser.max_buffered > self.max_parser_buffered:
                    self.max_parser_buffered = parser.max_buffered
        finally:
            self._release_slot(batch)

    async def _write_batch(self, writer: asyncio.StreamWriter,
                           batch: _Batch) -> bool:
        """Write the batch's replies in one go; False if the peer left.

        The ingest slot the batch claimed is held until ``drain()``
        returns: a slow reader occupies a slot, which is exactly the
        load signal that should trip ``RETRY_AFTER`` for everyone else.
        """
        if batch.nbytes > self.max_reply_buffered:
            self.max_reply_buffered = batch.nbytes
        try:
            if batch.frames:
                writer.write(b"".join(batch.frames))
                batch.frames.clear()
                batch.nbytes = 0
                await writer.drain()
            return True
        except OSError:
            return False  # peer went away mid-reply
        finally:
            self._release_slot(batch)

    def _release_slot(self, batch: _Batch) -> None:
        if batch.slot:
            batch.slot = False
            self.ingest_slots.release()

    # -- dispatch ----------------------------------------------------------

    def _dispatch(self, batch: _Batch, ftype: int, payload: bytes) -> None:
        """Answer one frame into *batch*; a ValueError is the caller's."""
        handler = self.handlers.get(ftype)
        if handler is None:
            batch.add(FrameType.ERROR,
                      f"unsupported frame type "
                      f"{FrameType.name(ftype)}".encode("utf-8"))
            return
        if handler.gated and not batch.slot:
            # One slot per batch, claimed by its first gated frame and
            # given back once the batch is written.
            batch.slot = self.ingest_slots.acquire(blocking=False)
            if not batch.slot:
                self.backpressure_rejections += 1
                batch.add(FrameType.RETRY_AFTER, encode_retry_after(
                    self.service.config.retry_after_seconds))
                return
        batch.add(*handler.handle(self.service, payload))

    def _metrics(self, service, payload: bytes) -> Reply:
        service.tick()
        return FrameType.TEXT, self.metrics_text().encode("utf-8")

    def metrics_text(self) -> str:
        """The service page plus the gate's counters and loop gauges."""
        return (self.service.metrics_text()
                + f"osprof_backpressure_total "
                  f"{self.backpressure_rejections}\n"
                + f"osprof_frames_oversize_total {self.frames_oversize}\n"
                + f"osprof_read_timeouts_total {self.read_timeouts}\n"
                + f"osprof_aio_connections_active "
                  f"{self.active_connections}\n"
                + f"osprof_aio_connections_total {self.connections_total}\n"
                + f"osprof_aio_parser_buffered_max "
                  f"{self.max_parser_buffered}\n"
                + f"osprof_aio_reply_buffered_max "
                  f"{self.max_reply_buffered}\n")
