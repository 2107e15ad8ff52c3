"""Frame codec tests: layout, incremental decoding, and total parsing."""

import struct
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from minihello.net.frames import (Frame, FrameDecoder, FrameError, HEADER_LEN,
                                  INVOKE, KIND_NAMES, PING, decode_frame_bytes,
                                  encode_frame)


class TestLayout:
    def test_header_fields_big_endian(self):
        frame = Frame(INVOKE, 0xDEADBEEF, b"abc")
        data = encode_frame(frame)
        length, kind, corr = struct.unpack(">IBQ", data[:HEADER_LEN])
        assert (length, kind, corr) == (3, INVOKE, 0xDEADBEEF)
        assert data[HEADER_LEN:] == b"abc"

    def test_length_equals_payload_length(self):
        for payload in (b"", b"x", b"y" * 1000):
            data = encode_frame(Frame(PING, 1, payload))
            assert struct.unpack(">I", data[:4])[0] == len(payload)

    def test_round_trip_all_kinds(self):
        for kind in KIND_NAMES:
            frame = Frame(kind, 7, b"payload")
            assert decode_frame_bytes(encode_frame(frame)) == frame

    def test_unknown_kind_rejected_both_ways(self):
        with pytest.raises(FrameError):
            encode_frame(Frame(0x7F, 0, b""))
        data = bytearray(encode_frame(Frame(PING, 0, b"")))
        data[4] = 0x7F
        with pytest.raises(FrameError):
            decode_frame_bytes(bytes(data))

    def test_length_mismatch_rejected(self):
        data = encode_frame(Frame(PING, 0, b"abcd"))
        with pytest.raises(FrameError):
            decode_frame_bytes(data[:-1])
        with pytest.raises(FrameError):
            decode_frame_bytes(data + b"z")


class TestDecoder:
    def test_reassembles_split_stream(self):
        frames = [Frame(PING, i, bytes([i]) * i) for i in range(5)]
        stream = b"".join(encode_frame(f) for f in frames)
        decoder = FrameDecoder()
        got = []
        for i in range(0, len(stream), 3):
            got.extend(decoder.feed(stream[i:i + 3]))
        assert got == frames
        assert decoder.pending_bytes() == 0

    def test_bad_kind_raises_mid_stream(self):
        good = encode_frame(Frame(PING, 1, b""))
        bad = bytearray(good)
        bad[4] = 0xEE
        decoder = FrameDecoder()
        assert decoder.feed(good) == [Frame(PING, 1, b"")]
        with pytest.raises(FrameError):
            decoder.feed(bytes(bad))

    def test_oversize_declared_length_rejected(self):
        header = struct.pack(">IBQ", 1 << 30, PING, 0)
        with pytest.raises(FrameError):
            FrameDecoder().feed(header)

    def test_payload_copied_once(self):
        size = 4 << 20
        data = encode_frame(Frame(INVOKE, 3, bytes(range(256)) * (size // 256)))
        decoder = FrameDecoder()
        tracemalloc.start()
        try:
            (frame,) = decoder.feed(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert frame.payload == data[HEADER_LEN:]
        assert decoder.pending_bytes() == 0
        # the stream buffer and the payload; a third copy would pass 3x
        assert peak < 2.25 * size


class TestTotality:
    @given(st.binary(max_size=200))
    @settings(max_examples=400, deadline=None)
    def test_fuzz_decode_total(self, data):
        try:
            decode_frame_bytes(data)
        except FrameError:
            pass

    @given(st.lists(st.binary(max_size=40), max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_fuzz_decoder_feed_total(self, chunks):
        decoder = FrameDecoder()
        try:
            for chunk in chunks:
                decoder.feed(chunk)
        except FrameError:
            pass
