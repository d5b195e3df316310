"""Tests for the SDP data-element codec."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PacketDecodeError
from repro.sdp.data_elements import (
    DataElement,
    ElementType,
    nil,
    sequence,
    text,
    uint,
    uint32,
    uuid16,
)


class TestScalars:
    def test_nil_is_one_byte(self):
        assert nil().encode() == b"\x00"
        assert DataElement.decode(b"\x00").element_type is ElementType.NIL

    def test_uint16_wire_format(self):
        # type 1, size index 1 -> 0x09, big-endian value
        assert uint(0x0019).encode() == b"\x09\x00\x19"

    def test_uint8(self):
        assert DataElement(ElementType.UNSIGNED_INT, 0x7F, 1).encode() == b"\x08\x7f"

    def test_uint32(self):
        assert uint32(0x0001_0000).encode() == b"\x0a\x00\x01\x00\x00"

    def test_uuid16_wire_format(self):
        # type 3, size index 1 -> 0x19
        assert uuid16(0x1101).encode() == b"\x19\x11\x01"

    def test_bool(self):
        assert DataElement(ElementType.BOOL, True, 1).encode() == b"\x28\x01"
        assert DataElement.decode(b"\x28\x00").value is False

    def test_text_short_form(self):
        raw = text("SDP").encode()
        assert raw == b"\x25\x03SDP"
        assert DataElement.decode(raw).value == "SDP"

    def test_signed_int_round_trip(self):
        element = DataElement(ElementType.SIGNED_INT, -5, 2)
        assert DataElement.decode(element.encode()).value == -5


class TestSequences:
    def test_nested_sequence_round_trip(self):
        element = sequence(uuid16(0x0100), uint(0x0019), sequence(text("x")))
        decoded = DataElement.decode(element.encode())
        assert decoded.element_type is ElementType.SEQUENCE
        assert len(decoded.value) == 3
        assert decoded.value[0].value == 0x0100
        assert decoded.value[2].value[0].value == "x"

    def test_empty_sequence(self):
        decoded = DataElement.decode(sequence().encode())
        assert decoded.value == ()

    def test_long_sequence_uses_u16_length(self):
        element = sequence(*[uint(i) for i in range(200)])
        raw = element.encode()
        assert raw[0] == (ElementType.SEQUENCE << 3) | 6  # u16 length form
        assert DataElement.decode(raw).value[199].value == 199


class TestErrors:
    def test_empty_input_raises(self):
        with pytest.raises(PacketDecodeError):
            DataElement.decode(b"")

    def test_truncated_value_raises(self):
        with pytest.raises(PacketDecodeError):
            DataElement.decode(b"\x09\x00")  # u16 with 1 byte

    def test_trailing_bytes_raise(self):
        with pytest.raises(PacketDecodeError):
            DataElement.decode(uint(1).encode() + b"\x00")

    def test_unknown_type_raises(self):
        with pytest.raises(PacketDecodeError):
            DataElement.decode(bytes([0x1F << 3]))

    def test_nil_with_size_raises(self):
        with pytest.raises(PacketDecodeError):
            DataElement.decode(b"\x01")


def _element_strategy(depth=2):
    scalar = st.one_of(
        st.builds(uint, st.integers(min_value=0, max_value=0xFFFF)),
        st.builds(uint32, st.integers(min_value=0, max_value=0xFFFFFFFF)),
        st.builds(uuid16, st.integers(min_value=0, max_value=0xFFFF)),
        st.builds(text, st.text(max_size=12)),
        st.booleans().map(lambda value: DataElement(ElementType.BOOL, value, 1)),
        st.just(nil()),
    )
    if depth == 0:
        return scalar
    return st.one_of(
        scalar,
        st.lists(_element_strategy(depth - 1), max_size=4).map(
            lambda children: sequence(*children)
        ),
    )


class TestProperties:
    @given(_element_strategy())
    @settings(max_examples=300)
    def test_round_trip(self, element):
        decoded = DataElement.decode(element.encode())
        assert decoded.element_type == element.element_type
        assert self._values_equal(decoded, element)

    @staticmethod
    def _values_equal(a, b):
        if a.element_type is ElementType.SEQUENCE:
            return len(a.value) == len(b.value) and all(
                TestProperties._values_equal(x, y)
                for x, y in zip(a.value, b.value)
            )
        return a.value == b.value

    @given(st.binary(min_size=1, max_size=32))
    @settings(max_examples=300)
    def test_decode_never_crashes(self, raw):
        try:
            DataElement.decode(raw)
        except PacketDecodeError:
            pass

    @given(st.integers(9, 31), st.integers(0, 7), st.binary(max_size=8))
    def test_reserved_type_is_named_in_the_error(self, type_value, size, rest):
        raw = bytes([type_value << 3 | size]) + rest
        with pytest.raises(PacketDecodeError, match=f"^unknown element type {type_value}$"):
            DataElement.decode(raw)
