"""Wire framing, and the layout of every frame payload.

Connection preamble: the 4 bytes HLO1. After that, every frame is
    length:u32 | kind:u8 | correlation:u64 | payload (length bytes)
with all integers big-endian. length counts the payload only. Unknown kinds
are rejected, never skipped. Frame parsing is total: arbitrary input yields
a frame or a FrameError, never a crash.

Each fixed-form payload layout is declared once below, as a `bio` codec
that both writes and reads it. Wire values are in no layout: the engine
writes and reads them itself, around the layouts.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from struct import Struct

from ..bio import (BOOL, BYTES, EMPTY, REST, STR, U8, U16, U32, U64, fixed,
                   list_of, struct, tuple_of)
from ..security import SID_LEN
from ..values import KEY

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

_HEADER = Struct(">IBQ")  # length, kind, corr
HEADER_LEN = _HEADER.size
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
    return _HEADER.pack(len(frame.payload), frame.kind, frame.corr) + frame.payload


def _header(data) -> tuple[int, int, int]:
    """The (length, kind, corr) of the frame header at the start of `data`,
    which holds at least HEADER_LEN bytes: a known kind, a payload no
    longer than MAX_PAYLOAD."""
    length, kind, corr = _HEADER.unpack_from(data)
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


# --- payload layouts ----------------------------------------------------------
#
# One codec per fixed-form payload. The named tuples are the values that the
# codecs built by `struct` write and read.

# HELLO and HELLO_ACK. Nothing reads `digest`, the SHA-256 of the sender's
# host-map grants, and any bytes there, or none, are accepted.
Hello = namedtuple("Hello", "name incarnation digest")
# ROUTE: an encoded frame on its way from `origin` to `target`. In table mode
# `hops` are the hosts that forwarded it so far; in explicit mode they are
# the hosts still to pass after the next one.
Route = namedtuple("Route", "mode ttl target origin hops inner")
# ERROR: `remote_code` is the callee-side code of a RemoteException, and
# empty for any other error.
ErrorInfo = namedtuple("ErrorInfo", "code remote_code message")
# The start of an INVOKE or EVENT_POST: the sub-operation, the sending host
# and the SIDs of the sending task's queue.
RequestHead = namedtuple("RequestHead", "op sender sids")
# What follows the head of a CREATE: `partition` is 0 unless `has_partition`.
CreateHead = namedtuple("CreateHead", "cls has_partition partition")
PackData = namedtuple("PackData", "last chunk")  # one chunk of an image

# INVOKE sub-operations.
OP_INVOKE = 0    # head, target, method, args
OP_POST = 1      # head, queue, target, method, args
OP_CREATE = 2    # head, CREATE_HEAD, args
OP_BARRIER = 3   # head, queue

# EVENT_POST sub-operations.
EV_CREATE = 0    # head, queue, target, EVENT_SIGNATURE
EV_FILL = 1      # head, EVENT_SLOT, value

HELLO_PAYLOAD = struct(Hello, STR, U64, REST)
# GOSSIP: (destination, hops) entries
GOSSIP_PAYLOAD = list_of(tuple_of(STR, list_of(STR, U8)))
ROUTE_PAYLOAD = struct(Route, U8, U8, STR, STR, list_of(STR), BYTES)
ERROR_PAYLOAD = struct(ErrorInfo, STR, STR, STR)
FETCH_PACK_PAYLOAD = STR  # the package name
PACK_DATA_PAYLOAD = struct(PackData, BOOL, REST)
REQUEST_HEAD = struct(RequestHead, U8, STR, list_of(fixed(SID_LEN)))
CREATE_HEAD = struct(CreateHead, KEY, BOOL, U32)
EVENT_SIGNATURE = tuple_of(STR, U16)  # method, arity
EVENT_SLOT = tuple_of(U64, U16)  # event id, slot

# The fixed-form start of each kind's payload. REPLY is one wire value.
LAYOUTS = {
    HELLO: HELLO_PAYLOAD, HELLO_ACK: HELLO_PAYLOAD, INVOKE: REQUEST_HEAD,
    REPLY: EMPTY, ERROR: ERROR_PAYLOAD, FETCH_PACK: FETCH_PACK_PAYLOAD,
    PACK_DATA: PACK_DATA_PAYLOAD, EVENT_POST: REQUEST_HEAD, PING: EMPTY,
    PONG: EMPTY, GOSSIP: GOSSIP_PAYLOAD, ROUTE: ROUTE_PAYLOAD,
}
