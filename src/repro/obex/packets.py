"""OBEX packet codec.

Packet layout::

    | opcode (1) | packet length (2, BE) | [connect extras] | headers |

CONNECT requests and their responses carry three extra octets (version,
flags, max packet size) before the headers. Headers are id-tagged values
whose layout (unicode / byte-sequence / 1-byte / 4-byte) is encoded in
the id's top two bits.
"""

from __future__ import annotations

import dataclasses
import struct

from repro.codec import frozen_instance
from repro.errors import PacketDecodeError, PacketEncodeError
from repro.obex.constants import (
    DEFAULT_MAX_PACKET,
    LAYOUT_BY_ID,
    HeaderLayout,
    OBEX_VERSION,
    Opcode,
    layout_of,
)

_LENGTH_PREFIXED = struct.Struct(">BH")
_CONNECT_EXTRAS = struct.Struct(">BBH")
_UNPACK_PREFIX = _LENGTH_PREFIXED.unpack_from
_UNPACK_EXTRAS = _CONNECT_EXTRAS.unpack_from

#: The byte layouts of a packet: an opcode (or response code, or header
#: id) with a 2-byte total length — the packet prefix and every unicode
#: or byte-sequence header — an id with a 1-byte or a 4-byte value, and
#: CONNECT's version/flags/max-packet extras. The codec writes with
#: these, and so does the OBEX mutator, which assembles requests as
#: bytes.
pack_length_prefixed = _LENGTH_PREFIXED.pack
pack_one_byte = struct.Struct(">BB").pack
pack_four_byte = struct.Struct(">BI").pack
pack_connect_extras = _CONNECT_EXTRAS.pack


@dataclasses.dataclass(frozen=True)
class ObexHeader:
    """One OBEX header (id + python-native value)."""

    header_id: int
    value: object

    def encode(self) -> bytes:
        """Serialise per the id's layout."""
        layout = layout_of(self.header_id)
        if layout is HeaderLayout.UNICODE:
            encoded = str(self.value).encode("utf-16-be") + b"\x00\x00"
            if len(encoded) + 3 > 0xFFFF:
                raise PacketEncodeError("unicode header too long")
            return pack_length_prefixed(self.header_id, len(encoded) + 3) + encoded
        if layout is HeaderLayout.BYTES:
            value = bytes(self.value)
            return pack_length_prefixed(self.header_id, len(value) + 3) + value
        if layout is HeaderLayout.ONE_BYTE:
            return pack_one_byte(self.header_id, int(self.value) & 0xFF)
        return pack_four_byte(self.header_id, int(self.value) & 0xFFFFFFFF)


def decode_headers(raw: bytes) -> list[ObexHeader]:
    """Parse a header region.

    :raises PacketDecodeError: on truncated or inconsistent headers.
    """
    headers = []
    offset = 0
    size = len(raw)
    while offset < size:
        header_id = raw[offset]
        layout = LAYOUT_BY_ID[header_id]
        if layout is HeaderLayout.ONE_BYTE:
            if offset + 2 > size:
                raise PacketDecodeError("truncated 1-byte OBEX header")
            value = raw[offset + 1]
            offset += 2
        elif layout is HeaderLayout.FOUR_BYTES:
            if offset + 5 > size:
                raise PacketDecodeError("truncated 4-byte OBEX header")
            value = int.from_bytes(raw[offset + 1 : offset + 5], "big")
            offset += 5
        else:
            if offset + 3 > size:
                raise PacketDecodeError("truncated OBEX header length")
            total = (raw[offset + 1] << 8) | raw[offset + 2]
            if total < 3 or offset + total > size:
                raise PacketDecodeError("OBEX header length out of bounds")
            value = raw[offset + 3 : offset + total]
            if layout is HeaderLayout.UNICODE:
                if value.endswith(b"\x00\x00"):
                    value = value[:-2]  # exactly one UTF-16 null terminator
                value = value.decode("utf-16-be", errors="replace")
            offset += total
        headers.append(
            frozen_instance(ObexHeader, {"header_id": header_id, "value": value})
        )
    return headers


@dataclasses.dataclass(frozen=True)
class ObexPacket:
    """One OBEX request or response.

    :param code: opcode (requests) or response code (responses).
    :param headers: ordered headers.
    :param connect_extras: (version, flags, max_packet) for CONNECT
        requests and CONNECT responses; None otherwise.
    """

    code: int
    headers: tuple[ObexHeader, ...] = ()
    connect_extras: tuple[int, int, int] | None = None

    def encode(self) -> bytes:
        """Serialise the packet."""
        body = b""
        if self.connect_extras is not None:
            body += pack_connect_extras(*self.connect_extras)
        body += b"".join(header.encode() for header in self.headers)
        total = 3 + len(body)
        if total > 0xFFFF:
            raise PacketEncodeError("OBEX packet exceeds 65535 bytes")
        return pack_length_prefixed(self.code & 0xFF, total) + body

    @classmethod
    def decode(cls, raw: bytes, has_connect_extras: bool | None = None) -> "ObexPacket":
        """Parse a packet.

        :param has_connect_extras: force extras parsing; None infers from
            the opcode (CONNECT requests carry extras; for responses the
            caller must say, since response codes are ambiguous).
        :raises PacketDecodeError: on framing errors.
        """
        if len(raw) < 3:
            raise PacketDecodeError(f"OBEX packet too short: {len(raw)} bytes")
        code, total = _UNPACK_PREFIX(raw)
        if total != len(raw):
            raise PacketDecodeError(
                f"OBEX length {total} disagrees with {len(raw)} bytes"
            )
        body = raw[3:]
        extras = None
        wants_extras = (
            has_connect_extras
            if has_connect_extras is not None
            else code == Opcode.CONNECT
        )
        if wants_extras:
            if len(body) < 4:
                raise PacketDecodeError("truncated OBEX connect extras")
            extras = _UNPACK_EXTRAS(body)
            body = body[4:]
        return frozen_instance(
            cls,
            {
                "code": code,
                "headers": tuple(decode_headers(body)),
                "connect_extras": extras,
            },
        )

    def header(self, header_id: int) -> object | None:
        """First header value with *header_id* (None when absent)."""
        for header in self.headers:
            if header.header_id == header_id:
                return header.value
        return None


def connect_request(max_packet: int = DEFAULT_MAX_PACKET) -> ObexPacket:
    """Build a CONNECT request."""
    return ObexPacket(
        Opcode.CONNECT, connect_extras=(OBEX_VERSION, 0x00, max_packet)
    )


def disconnect_request() -> ObexPacket:
    """Build a DISCONNECT request."""
    return ObexPacket(Opcode.DISCONNECT)


def put_request(name: str, body: bytes) -> ObexPacket:
    """Build a single-shot (final) PUT carrying a whole object."""
    from repro.obex.constants import HeaderId

    return ObexPacket(
        Opcode.PUT_FINAL,
        (
            ObexHeader(HeaderId.NAME, name),
            ObexHeader(HeaderId.LENGTH, len(body)),
            ObexHeader(HeaderId.END_OF_BODY, body),
        ),
    )


def get_request(name: str) -> ObexPacket:
    """Build a (final) GET for a named object."""
    from repro.obex.constants import HeaderId

    return ObexPacket(Opcode.GET_FINAL, (ObexHeader(HeaderId.NAME, name),))
