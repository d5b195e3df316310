"""Tests for the RFCOMM frame codec and FCS."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PacketDecodeError, PacketEncodeError
from repro.rfcomm.constants import FrameType, fcs
from repro.rfcomm.frames import RfcommFrame, disc, dm, sabm, ua, uih


class TestFcs:
    def test_fcs_detects_corruption(self):
        data = b"\x0b\x2f"
        assert fcs(b"\x0b\x2e") != fcs(data)

    def test_fcs_is_one_byte(self):
        assert 0 <= fcs(b"\x03\xef\x01") <= 0xFF


class TestCodec:
    @pytest.mark.parametrize(
        "builder,frame_type",
        [
            (sabm, FrameType.SABM),
            (ua, FrameType.UA),
            (dm, FrameType.DM),
            (disc, FrameType.DISC),
        ],
    )
    def test_control_frames_round_trip(self, builder, frame_type):
        frame = builder(5)
        decoded = RfcommFrame.decode(frame.encode())
        assert decoded.frame_type == frame_type
        assert decoded.dlci == 5

    def test_uih_round_trip_with_payload(self):
        frame = uih(3, b"serial data")
        decoded = RfcommFrame.decode(frame.encode())
        assert decoded.payload == b"serial data"
        assert decoded.dlci == 3

    def test_long_payload_uses_two_byte_length(self):
        frame = uih(3, b"x" * 200)
        decoded = RfcommFrame.decode(frame.encode())
        assert decoded.payload == b"x" * 200

    def test_cr_bit_round_trips(self):
        decoded = RfcommFrame.decode(ua(1).encode())
        assert not decoded.command

    def test_bad_fcs_rejected(self):
        raw = bytearray(sabm(1).encode())
        raw[-1] ^= 0xFF
        with pytest.raises(PacketDecodeError):
            RfcommFrame.decode(bytes(raw))

    def test_fcs_override_produces_invalid_frame(self):
        frame = RfcommFrame(1, FrameType.SABM, fcs_override=0x00)
        with pytest.raises(PacketDecodeError):
            RfcommFrame.decode(frame.encode())

    def test_truncated_frame_rejected(self):
        with pytest.raises(PacketDecodeError):
            RfcommFrame.decode(b"\x0b\x2f")

    def test_dlci_out_of_range_rejected(self):
        with pytest.raises(PacketEncodeError):
            RfcommFrame(64, FrameType.SABM).encode()

    def test_uih_fcs_covers_header_only(self):
        """Corrupting UIH payload does not break the FCS (per TS 07.10)."""
        raw = bytearray(uih(3, b"abcd").encode())
        raw[3] ^= 0xFF  # flip a payload byte
        decoded = RfcommFrame.decode(bytes(raw))
        assert decoded.payload != b"abcd"

    def test_trailing_garbage_is_tolerated(self):
        """Bytes beyond the declared frame parse fine — the garbage tail."""
        raw = uih(3, b"ab").encode() + b"\xde\xad\xbe\xef"
        decoded = RfcommFrame.decode(raw)
        assert decoded.payload == b"ab"


class TestProperties:
    @given(
        st.integers(min_value=0, max_value=63),
        st.sampled_from(list(FrameType)),
        st.binary(max_size=64),
    )
    @settings(max_examples=200)
    def test_round_trip(self, dlci, frame_type, payload):
        if frame_type != FrameType.UIH:
            payload = b""
        frame = RfcommFrame(dlci, frame_type, payload=payload)
        decoded = RfcommFrame.decode(frame.encode())
        assert decoded.dlci == dlci
        assert decoded.frame_type == frame_type
        assert decoded.payload == payload

    @given(st.binary(min_size=1, max_size=32))
    @settings(max_examples=200)
    def test_decode_never_crashes(self, raw):
        try:
            RfcommFrame.decode(raw)
        except PacketDecodeError:
            pass
