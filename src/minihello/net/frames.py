"""Wire framing.

Connection preamble: the 4 bytes HLO1. After that, every frame is
    length:u32 | kind:u8 | correlation:u64 | payload (length bytes)
with all integers big-endian. length counts the payload only. Unknown kinds
are rejected, never skipped. Frame parsing is total: arbitrary input yields
a frame or a FrameError, never a crash.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from ..bio import Reader, Writer

PREAMBLE = b"HLO1"

HELLO = 0x01
HELLO_ACK = 0x02
INVOKE = 0x03
REPLY = 0x04
ERROR = 0x05
FETCH_PACK = 0x06
PACK_DATA = 0x07
EVENT_POST = 0x08
PING = 0x09
PONG = 0x0A
GOSSIP = 0x0B
ROUTE = 0x0C

KIND_NAMES = {
    HELLO: "HELLO", HELLO_ACK: "HELLO_ACK", INVOKE: "INVOKE", REPLY: "REPLY",
    ERROR: "ERROR", FETCH_PACK: "FETCH_PACK", PACK_DATA: "PACK_DATA",
    EVENT_POST: "EVENT_POST", PING: "PING", PONG: "PONG", GOSSIP: "GOSSIP",
    ROUTE: "ROUTE",
}

HEADER_LEN = 4 + 1 + 8
MAX_PAYLOAD = 64 * 1024 * 1024


class FrameError(Exception):
    pass


@dataclass(frozen=True, slots=True)
class Frame:
    """One frame. Its payload is any bytes-like object: a sender hands over
    the buffer it wrote the payload into, and the payload of a frame that
    `decode_frame_bytes` returns is a view into the received frame, which
    it keeps alive."""
    kind: int
    corr: int
    payload: bytes | bytearray | memoryview

    @property
    def kind_name(self) -> str:
        return KIND_NAMES.get(self.kind, f"0x{self.kind:02x}")


@dataclass(frozen=True)
class FrameMeta:
    """Where a frame that the engine handles came from: the sending host,
    and the path back to it when the frame was routed by table."""
    src: str
    reverse_path: tuple = ()


def encode_frame(frame: Frame) -> bytes:
    if frame.kind not in KIND_NAMES:
        raise FrameError(f"unknown frame kind {frame.kind}")
    if len(frame.payload) > MAX_PAYLOAD:
        raise FrameError("payload too large")
    return struct.pack(">IBQ", len(frame.payload), frame.kind, frame.corr) + frame.payload


def _header(data) -> tuple[int, int, int]:
    """The (length, kind, corr) of the frame header at the start of `data`,
    which holds at least HEADER_LEN bytes: a known kind, a payload no
    longer than MAX_PAYLOAD."""
    length, kind, corr = struct.unpack_from(">IBQ", data)
    if kind not in KIND_NAMES:
        raise FrameError(f"unknown frame kind {kind}")
    if length > MAX_PAYLOAD:
        raise FrameError("declared payload too large")
    return length, kind, corr


def decode_frame_bytes(data: bytes) -> Frame:
    """Decode exactly one frame; the buffer must contain it whole. The
    payload is a view into `data`, not a copy."""
    if len(data) < HEADER_LEN:
        raise FrameError("short frame header")
    length, kind, corr = _header(data)
    if len(data) != HEADER_LEN + length:
        raise FrameError(f"length mismatch: declared {length}, "
                         f"present {len(data) - HEADER_LEN}")
    return Frame(kind, corr, memoryview(data)[HEADER_LEN:])


class FrameDecoder:
    """Incremental decoder for a byte stream (TCP reader side)."""

    def __init__(self):
        self._buf = bytearray()

    def feed(self, data: bytes) -> list[Frame]:
        self._buf += data
        frames = []
        while len(self._buf) >= HEADER_LEN:
            length, kind, corr = _header(self._buf)
            end = HEADER_LEN + length
            if len(self._buf) < end:
                break
            with memoryview(self._buf) as view:
                payload = bytes(view[HEADER_LEN:end])  # the one copy
            del self._buf[:end]
            frames.append(Frame(kind, corr, payload))
        return frames

    def pending_bytes(self) -> int:
        return len(self._buf)


def error_payload(code: str, message: str, remote_code: str = "") -> bytes:
    """The payload of an ERROR frame: the error code, the callee-side code
    of a RemoteException (empty for any other error), and the message."""
    w = Writer()
    w.wstr(code)
    w.wstr(remote_code)
    w.wstr(message)
    return w.getvalue()


def read_error(payload: bytes) -> tuple[str, str, str]:
    """The (code, remote_code, message) of an ERROR payload; raises
    ShortRead when it is cut short."""
    r = Reader(payload)
    return r.wstr(), r.wstr(), r.wstr()
