"""SDP data-element codec (Core 5.2 Vol 3 Part B §3).

Every value in an SDP PDU is a *data element*: a type descriptor byte
(5-bit type, 3-bit size index) followed by an optional length and the
value. Sequences nest, which is how service records, attribute lists and
protocol descriptor lists are expressed.
"""

from __future__ import annotations

import dataclasses
import enum

from repro.codec import frozen_instance
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
_FIXED_WIDTHS = (1, 2, 4, 8, 16)

#: Numeric byte width → size index (the inverse of :data:`_FIXED_WIDTHS`).
_SIZE_INDEX_BY_WIDTH = {width: index for index, width in enumerate(_FIXED_WIDTHS)}

#: Size-index → byte width of the explicit length that follows (5-7).
_LENGTH_WIDTHS = {5: 1, 6: 2, 7: 4}


#: The types whose descriptor's size index names the value width.
_FIXED_KINDS = frozenset(
    (
        ElementType.UNSIGNED_INT,
        ElementType.SIGNED_INT,
        ElementType.UUID,
        ElementType.BOOL,
    )
)


def element_header(kind: ElementType, length: int) -> bytes:
    """The bytes that open an element of *kind* with a *length*-byte value.

    Numeric, UUID and bool descriptors name the width in their size
    index; text, URL, sequence and alternative descriptors are followed
    by an explicit 1-, 2- or 4-byte length. Every element is encoded
    through this, and the SDP mutator builds its request elements from
    it without element objects.

    :raises PacketEncodeError: for a width a fixed-size type cannot have.
    """
    if kind in _FIXED_KINDS:
        size_index = _SIZE_INDEX_BY_WIDTH.get(length)
        if size_index is None:
            raise PacketEncodeError(f"unsupported numeric width {length}")
        return bytes([(kind << 3) | size_index])
    if length <= 0xFF:
        return bytes([(kind << 3) | 5, length])
    if length <= 0xFFFF:
        return bytes([(kind << 3) | 6]) + length.to_bytes(2, "big")
    return bytes([(kind << 3) | 7]) + length.to_bytes(4, "big")


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
        if kind in (ElementType.UNSIGNED_INT, ElementType.UUID):
            return element_header(kind, self.width) + int(self.value).to_bytes(
                self.width, "big"
            )
        if kind is ElementType.SIGNED_INT:
            return element_header(kind, self.width) + int(self.value).to_bytes(
                self.width, "big", signed=True
            )
        if kind is ElementType.BOOL:
            return element_header(kind, 1) + bytes([1 if self.value else 0])
        if kind in (ElementType.TEXT, ElementType.URL):
            payload = str(self.value).encode("utf-8")
        elif kind in (ElementType.SEQUENCE, ElementType.ALTERNATIVE):
            payload = b"".join(child.encode() for child in self.value)
        else:
            raise PacketEncodeError(f"unsupported element type {kind}")
        return element_header(kind, len(payload)) + payload

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
        return _decode(raw, offset, len(raw))


_UNSIGNED_INT = ElementType.UNSIGNED_INT
_UUID = ElementType.UUID


def _decode(raw: bytes, offset: int, limit: int) -> tuple[DataElement, int]:
    """Decode the element at *offset* of ``raw[:limit]``; (element, end).

    Children are decoded in place (no slice per sequence), and a
    sequence's fixed-width numeric children — a UUID search pattern,
    an attribute-id list — without a recursive call.
    """
    if offset >= limit:
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
        return frozen_instance(
            DataElement, {"element_type": kind, "value": None, "width": 0}
        ), offset

    if size_index < 5:
        length = _FIXED_WIDTHS[size_index]
    else:
        width = _LENGTH_WIDTHS[size_index]
        if offset + width > limit:
            raise PacketDecodeError("truncated data element length")
        length = int.from_bytes(raw[offset : offset + width], "big")
        offset += width
    end = offset + length
    if end > limit:
        raise PacketDecodeError("truncated data element value")

    if kind is _UNSIGNED_INT or kind is _UUID:
        value = int.from_bytes(raw[offset:end], "big")
    elif kind is ElementType.SIGNED_INT:
        value = int.from_bytes(raw[offset:end], "big", signed=True)
    elif kind is ElementType.BOOL:
        if length != 1:
            raise PacketDecodeError(f"bool element of {length} bytes")
        value = bool(raw[offset])
    elif kind is ElementType.SEQUENCE or kind is ElementType.ALTERNATIVE:
        # decode children until the region ends
        children = []
        child = offset
        while child < end:
            descriptor = raw[child]
            child_kind = _TYPE_BY_DESCRIPTOR[descriptor >> 3]
            size_index = descriptor & 0x07
            if size_index < 5 and (child_kind is _UNSIGNED_INT or child_kind is _UUID):
                width = _FIXED_WIDTHS[size_index]
                stop = child + 1 + width
                if stop > end:
                    raise PacketDecodeError("truncated data element value")
                children.append(
                    frozen_instance(
                        DataElement,
                        {
                            "element_type": child_kind,
                            "value": int.from_bytes(raw[child + 1 : stop], "big"),
                            "width": width,
                        },
                    )
                )
                child = stop
            else:
                element, child = _decode(raw, child, end)
                children.append(element)
        value = tuple(children)
    else:  # text / url
        value = raw[offset:end].decode("utf-8", errors="replace")
    return frozen_instance(
        DataElement, {"element_type": kind, "value": value, "width": length}
    ), end


# -- convenience constructors ----------------------------------------------------


def nil() -> DataElement:
    """A nil element."""
    return DataElement(ElementType.NIL, None, 0)


def uint(value: int, width: int = 2) -> DataElement:
    """An unsigned integer element of *width* bytes."""
    return DataElement(ElementType.UNSIGNED_INT, value, width)


def uint32(value: int) -> DataElement:
    """A four-byte unsigned integer element."""
    return DataElement(ElementType.UNSIGNED_INT, value, 4)


def uuid16(value: int) -> DataElement:
    """A 16-bit UUID element."""
    return DataElement(ElementType.UUID, value, 2)


def text(value: str) -> DataElement:
    """A text string element."""
    return DataElement(ElementType.TEXT, value, len(value))


def sequence(*children: DataElement) -> DataElement:
    """A data-element sequence."""
    return DataElement(ElementType.SEQUENCE, tuple(children))
