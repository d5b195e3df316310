"""Property-based tests for the packet codec (hypothesis)."""

from __future__ import annotations

import struct

from hypothesis import given, settings, strategies as st

from repro.l2cap.constants import CommandCode
from repro.l2cap.packets import COMMAND_SPECS, L2capPacket


def _packet_strategy():
    """Strategy generating spec-conformant packets with random values."""

    @st.composite
    def build(draw):
        code = draw(st.sampled_from(sorted(COMMAND_SPECS)))
        spec = COMMAND_SPECS[code]
        fields = {
            field.name: draw(st.integers(min_value=0, max_value=field.max_value))
            for field in spec.fields
        }
        tail = draw(st.binary(max_size=32)) if spec.tail_name else b""
        garbage = draw(st.binary(max_size=16))
        identifier = draw(st.integers(min_value=0, max_value=255))
        return L2capPacket(code, identifier, fields, tail=tail, garbage=garbage)

    return build()


class TestCodecProperties:
    @given(_packet_strategy())
    @settings(max_examples=300)
    def test_round_trip_is_identity(self, packet):
        decoded = L2capPacket.decode(packet.encode())
        assert decoded.code == packet.code
        assert decoded.identifier == packet.identifier
        assert decoded.fields == packet.fields
        assert decoded.tail == packet.tail
        assert decoded.garbage == packet.garbage

    @given(_packet_strategy())
    @settings(max_examples=200)
    def test_reencoding_is_byte_identical(self, packet):
        raw = packet.encode()
        assert L2capPacket.decode(raw).encode() == raw

    @given(_packet_strategy())
    @settings(max_examples=200)
    def test_lengths_exclude_garbage(self, packet):
        (payload_length,) = struct.unpack_from("<H", packet.encode())
        assert payload_length == packet.wire_length - 4 - len(packet.garbage)

    @given(_packet_strategy(), st.binary(min_size=1, max_size=8))
    @settings(max_examples=100)
    def test_adding_garbage_never_changes_declared_lengths(self, packet, extra):
        # The basic and command headers carry both declared lengths.
        before = packet.encode()[:8]
        packet = packet.replace(garbage=packet.garbage + extra)
        after = packet.encode()
        assert after[:8] == before and after.endswith(extra)

    @given(st.binary(min_size=8, max_size=64))
    @settings(max_examples=300)
    def test_decode_never_crashes_on_random_bytes(self, raw):
        """Decode either succeeds or raises the library's decode error."""
        from repro.errors import PacketDecodeError

        try:
            packet = L2capPacket.decode(raw)
        except PacketDecodeError:
            return
        assert packet.wire_length >= 8
