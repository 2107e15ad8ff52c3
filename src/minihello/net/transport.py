"""Byte-stream transports.

A transport hands out connection objects with a tiny contract: send_frame,
close, and two callbacks the router installs (on_frame, on_close). The TCP
implementation here is a set of asyncio protocols on its node's event loop,
the thread that owns the node's engine and router; the simulated
implementation lives in the simharness and delivers frames as logical-clock
events. A TCP connection exchanges the HLO1 preamble before any frame; a
simulated one sends none, since it delivers whole frames.
"""

from __future__ import annotations

import asyncio
import socket

from ..errors import E_CONNECT_REFUSED, E_HOST_UNREACHABLE, EngineError
from .frames import Frame, FrameDecoder, FrameError, PREAMBLE, encode_frame


class TcpConnection(asyncio.Protocol):
    """One TCP connection. Frames sent while a dial is still connecting wait
    in a backlog. A bad preamble, a malformed frame or a close in the middle
    of one is logged as one BadFrame error, and a bad one closes the
    connection; `on_close` runs once, whichever side closed it."""

    def __init__(self, owner: "TcpTransport", label: str | None):
        self.owner = owner
        self.label = label  # the endpoint dialed, or the peer's address
        self.on_frame = None
        self.on_close = None
        self._transport: asyncio.Transport | None = None
        self._backlog: list[bytes] | None = [PREAMBLE]
        self._preamble = b""  # the peer's, until all of it has arrived
        self._decoder = FrameDecoder()
        self._closed = False
        self.dial_task: asyncio.Task | None = None
        owner.connections.add(self)

    def send_frame(self, frame: Frame) -> None:
        if self._closed:
            raise EngineError(E_HOST_UNREACHABLE, "connection closed")
        data = encode_frame(frame)
        if self._backlog is not None:
            self._backlog.append(data)
        else:
            self._transport.write(data)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._transport is not None:
            self._transport.close()  # connection_lost follows
        elif self.dial_task is not None:
            self.dial_task.cancel()  # _dialed follows

    # ----------------------------------------------------- asyncio callbacks

    def connection_made(self, transport) -> None:
        self._transport = transport
        if self._closed:  # closed while the dial was connecting
            transport.close()
            return
        if self.label is None:
            host, port = transport.get_extra_info("peername")[:2]
            self.label = f"{host}:{port}"
        transport.write(b"".join(self._backlog))
        self._backlog = None

    def data_received(self, data: bytes) -> None:
        if self._preamble is not None:
            self._preamble += data
            if len(self._preamble) < len(PREAMBLE):
                return
            n = len(PREAMBLE)
            got, data = self._preamble[:n], self._preamble[n:]
            self._preamble = None
            if got != PREAMBLE:
                self._bad(f"bad preamble {got!r}")
                return
        try:
            frames = self._decoder.feed(data)
        except FrameError as exc:
            self._bad(str(exc))
            return
        for frame in frames:
            if self._closed:
                return
            try:
                self.on_frame(self, frame)
            except EngineError as err:
                self.owner.log_error(err.code, f"{self.label}: {err.message}")

    def eof_received(self) -> None:
        if self._preamble or self._decoder.pending_bytes():
            self._bad("closed in the middle of a frame")

    def connection_lost(self, exc) -> None:
        self._closed = True
        self._gone()

    def _dialed(self, task: asyncio.Task) -> None:
        self.dial_task = None
        if task.cancelled() or task.exception() is not None:
            self._closed = True
            self._gone()

    def _bad(self, why: str) -> None:
        self.owner.log_error("BadFrame", f"{self.label}: {why}")
        self.close()

    def _gone(self) -> None:
        if self in self.owner.connections:
            self.owner.connections.discard(self)
            if self.on_close is not None:
                self.on_close(self)


def _parse_endpoint(endpoint: str) -> tuple[str, int]:
    host, _, port = endpoint.rpartition(":")
    return host or "127.0.0.1", int(port)


class TcpTransport:
    def __init__(self, loop: asyncio.AbstractEventLoop, log_error):
        self.loop = loop
        self.log_error = log_error  # callable(code, context)
        self.connections: set[TcpConnection] = set()
        self._listener: socket.socket | None = None
        self._server: asyncio.Task | None = None

    def listen(self, endpoint: str, on_accept) -> None:
        host, port = _parse_endpoint(endpoint)
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((host, port))
            sock.listen(16)
        except OSError:
            sock.close()
            raise
        self._listener = sock
        self.bound_port = sock.getsockname()[1]

        def accepted() -> TcpConnection:
            conn = TcpConnection(self, None)
            on_accept(conn)
            return conn

        self._server = self.loop.create_task(
            self.loop.create_server(accepted, sock=sock))

    def dial(self, endpoint: str) -> TcpConnection:
        """Start connecting and return the connection at once. A host name
        is resolved here; a refused or failed connect closes the connection
        (`on_close`) later, on the loop."""
        host, port = _parse_endpoint(endpoint)
        try:
            address = socket.gethostbyname(host)
        except OSError as exc:
            raise EngineError(E_CONNECT_REFUSED, f"{endpoint}: {exc}") from exc
        conn = TcpConnection(self, endpoint)
        conn.dial_task = self.loop.create_task(
            self.loop.create_connection(lambda: conn, address, port))
        conn.dial_task.add_done_callback(conn._dialed)
        return conn

    def close(self) -> None:
        """Stop listening and close every connection."""
        server, self._server = self._server, None
        if server is not None:
            if server.done() and not server.cancelled() \
                    and server.exception() is None:
                server.result().close()  # closes the listening socket
            else:
                server.cancel()
                self._listener.close()
        for conn in list(self.connections):
            conn.close()
