"""SDP data-element codec (Core 5.2 Vol 3 Part B §3).

Every value in an SDP PDU is a *data element*: a type descriptor byte
(5-bit type, 3-bit size index) followed by an optional length and the
value. Sequences nest, which is how service records, attribute lists and
protocol descriptor lists are expressed.
"""

from __future__ import annotations

import dataclasses
import enum
import struct

from repro.errors import PacketDecodeError, PacketEncodeError


class ElementType(enum.IntEnum):
    """The 5-bit data-element type descriptors."""

    NIL = 0
    UNSIGNED_INT = 1
    SIGNED_INT = 2
    UUID = 3
    TEXT = 4
    BOOL = 5
    SEQUENCE = 6
    ALTERNATIVE = 7
    URL = 8


#: 5-bit type descriptor → element type (None for the reserved values).
_TYPE_BY_DESCRIPTOR: tuple[ElementType | None, ...] = tuple(
    {kind.value: kind for kind in ElementType}.get(value) for value in range(32)
)

#: Size-index → fixed byte count (indexes 5-7 use an explicit length).
_FIXED_SIZES = {0: 1, 1: 2, 2: 4, 3: 8, 4: 16}

#: Numeric byte width → size index (the inverse of :data:`_FIXED_SIZES`).
_SIZE_INDEX_BY_WIDTH = {width: index for index, width in _FIXED_SIZES.items()}

#: Size-index → byte width of the explicit length that follows (5-7).
_LENGTH_WIDTHS = {5: 1, 6: 2, 7: 4}


@dataclasses.dataclass(frozen=True)
class DataElement:
    """One decoded data element.

    :param element_type: the 5-bit type.
    :param value: python-native value — int for numeric/uuid/bool types,
        str for text/url, tuple of elements for sequence/alternative,
        None for nil.
    :param width: byte width for numeric and uuid types (2, 4, 8, 16).
    """

    element_type: ElementType
    value: object
    width: int = 2

    # -- encoding -----------------------------------------------------------------

    def encode(self) -> bytes:
        """Serialise this element (recursively for sequences)."""
        kind = self.element_type
        if kind is ElementType.NIL:
            return bytes([0x00])
        if kind in (ElementType.UNSIGNED_INT, ElementType.SIGNED_INT, ElementType.UUID):
            return self._encode_numeric()
        if kind is ElementType.BOOL:
            return bytes([(ElementType.BOOL << 3) | 0]) + bytes([1 if self.value else 0])
        if kind in (ElementType.TEXT, ElementType.URL):
            payload = str(self.value).encode("utf-8")
            return self._with_variable_header(payload)
        if kind in (ElementType.SEQUENCE, ElementType.ALTERNATIVE):
            payload = b"".join(child.encode() for child in self.value)
            return self._with_variable_header(payload)
        raise PacketEncodeError(f"unsupported element type {kind}")

    def _encode_numeric(self) -> bytes:
        size_index = _SIZE_INDEX_BY_WIDTH.get(self.width)
        if size_index is None:
            raise PacketEncodeError(f"unsupported numeric width {self.width}")
        header = bytes([(self.element_type << 3) | size_index])
        if self.element_type is ElementType.SIGNED_INT:
            return header + int(self.value).to_bytes(self.width, "big", signed=True)
        return header + int(self.value).to_bytes(self.width, "big")

    def _with_variable_header(self, payload: bytes) -> bytes:
        if len(payload) <= 0xFF:
            header = bytes([(self.element_type << 3) | 5]) + struct.pack(">B", len(payload))
        elif len(payload) <= 0xFFFF:
            header = bytes([(self.element_type << 3) | 6]) + struct.pack(">H", len(payload))
        else:
            header = bytes([(self.element_type << 3) | 7]) + struct.pack(">I", len(payload))
        return header + payload

    # -- decoding -----------------------------------------------------------------

    @classmethod
    def decode(cls, raw: bytes) -> "DataElement":
        """Decode one element from *raw* (which must contain exactly one).

        :raises PacketDecodeError: on truncation or trailing bytes.
        """
        element, consumed = cls.decode_prefix(raw)
        if consumed != len(raw):
            raise PacketDecodeError(
                f"{len(raw) - consumed} trailing bytes after data element"
            )
        return element

    @classmethod
    def decode_prefix(cls, raw: bytes, offset: int = 0) -> tuple["DataElement", int]:
        """Decode one element starting at *offset*; return (element, end).

        :raises PacketDecodeError: on malformed input.
        """
        if offset >= len(raw):
            raise PacketDecodeError("empty data element")
        descriptor = raw[offset]
        kind = _TYPE_BY_DESCRIPTOR[descriptor >> 3]
        if kind is None:
            raise PacketDecodeError(f"unknown element type {descriptor >> 3}")
        size_index = descriptor & 0x07
        offset += 1

        if kind is ElementType.NIL:
            if size_index != 0:
                raise PacketDecodeError("nil element with nonzero size")
            return cls(ElementType.NIL, None, 0), offset

        length, offset = cls._decode_length(raw, offset, size_index, kind)
        if offset + length > len(raw):
            raise PacketDecodeError("truncated data element value")
        body = raw[offset : offset + length]
        end = offset + length

        if kind is ElementType.UNSIGNED_INT or kind is ElementType.UUID:
            return cls(kind, int.from_bytes(body, "big"), length), end
        if kind is ElementType.SIGNED_INT:
            return cls(kind, int.from_bytes(body, "big", signed=True), length), end
        if kind is ElementType.BOOL:
            if length != 1:
                raise PacketDecodeError(f"bool element of {length} bytes")
            return cls(kind, bool(body[0]), 1), end
        if kind in (ElementType.TEXT, ElementType.URL):
            return cls(kind, body.decode("utf-8", errors="replace"), len(body)), end
        # sequence / alternative: decode children until the region ends
        children = []
        child_offset = 0
        while child_offset < len(body):
            child, child_offset = cls.decode_prefix(body, child_offset)
            children.append(child)
        return cls(kind, tuple(children), len(body)), end

    @staticmethod
    def _decode_length(
        raw: bytes, offset: int, size_index: int, kind: ElementType
    ) -> tuple[int, int]:
        if size_index in _FIXED_SIZES:
            return _FIXED_SIZES[size_index], offset
        width = _LENGTH_WIDTHS[size_index]
        if offset + width > len(raw):
            raise PacketDecodeError("truncated data element length")
        length = int.from_bytes(raw[offset : offset + width], "big")
        return length, offset + width


# -- convenience constructors ----------------------------------------------------


def nil() -> DataElement:
    """A nil element."""
    return DataElement(ElementType.NIL, None, 0)


def uint(value: int, width: int = 2) -> DataElement:
    """An unsigned integer element of *width* bytes."""
    return DataElement(ElementType.UNSIGNED_INT, value, width)


def uint8(value: int) -> DataElement:
    """A one-byte unsigned integer element."""
    return DataElement(ElementType.UNSIGNED_INT, value, 1)


def uint32(value: int) -> DataElement:
    """A four-byte unsigned integer element."""
    return DataElement(ElementType.UNSIGNED_INT, value, 4)


def uuid16(value: int) -> DataElement:
    """A 16-bit UUID element."""
    return DataElement(ElementType.UUID, value, 2)


def text(value: str) -> DataElement:
    """A text string element."""
    return DataElement(ElementType.TEXT, value, len(value))


def boolean(value: bool) -> DataElement:
    """A boolean element."""
    return DataElement(ElementType.BOOL, value, 1)


def sequence(*children: DataElement) -> DataElement:
    """A data-element sequence."""
    return DataElement(ElementType.SEQUENCE, tuple(children))
