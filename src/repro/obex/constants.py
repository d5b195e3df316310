"""OBEX protocol constants (IrOBEX 1.3 as profiled by Bluetooth).

OBEX is the object-exchange layer at the top of the paper's Fig. 1
stack: file transfer runs OBEX over RFCOMM over L2CAP (§II.A). The
subset here covers session setup and object push/pull — enough to run
the paper's motivating file-transfer scenario end-to-end on the virtual
stack.
"""

from __future__ import annotations

import enum


class Opcode(enum.IntEnum):
    """Request opcodes (FINAL bit 0x80 included where mandatory)."""

    CONNECT = 0x80
    DISCONNECT = 0x81
    PUT = 0x02
    PUT_FINAL = 0x82
    GET = 0x03
    GET_FINAL = 0x83
    ABORT = 0xFF


class ResponseCode(enum.IntEnum):
    """Response codes (FINAL bit included)."""

    CONTINUE = 0x90
    SUCCESS = 0xA0
    BAD_REQUEST = 0xC0
    FORBIDDEN = 0xC3
    NOT_FOUND = 0xC4
    LENGTH_REQUIRED = 0xCB
    INTERNAL_ERROR = 0xD0


class HeaderId(enum.IntEnum):
    """Header identifiers; the top two bits encode the value layout."""

    NAME = 0x01  # unicode, length-prefixed
    TYPE = 0x42  # byte sequence
    BODY = 0x48  # byte sequence
    END_OF_BODY = 0x49  # byte sequence
    WHO = 0x4A  # byte sequence
    CONNECTION_ID = 0xCB  # 4-byte
    LENGTH = 0xC3  # 4-byte
    SRM = 0x97  # 1-byte


#: Layout of a header id, from its top two bits.
class HeaderLayout(enum.IntEnum):
    UNICODE = 0x00
    BYTES = 0x40
    ONE_BYTE = 0x80
    FOUR_BYTES = 0xC0


#: Header layouts indexed by a header id's top two bits.
_LAYOUT_BY_TOP_BITS: tuple[HeaderLayout, ...] = tuple(
    HeaderLayout(bits << 6) for bits in range(4)
)


def layout_of(header_id: int) -> HeaderLayout:
    """Value layout encoded in a header id's top two bits."""
    return _LAYOUT_BY_TOP_BITS[(header_id & 0xC0) >> 6]


#: OBEX protocol version 1.0 (the on-air value for IrOBEX 1.3).
OBEX_VERSION = 0x10

#: Default maximum OBEX packet size our server advertises.
DEFAULT_MAX_PACKET = 0x2000
