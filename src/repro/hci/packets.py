"""HCI ACL framing (the outermost layer of paper Fig. 3).

The Host Controller Interface carries L2CAP traffic between host and
controller. One ACL data packet wraps one L2CAP frame::

    | Type (1) | Connection Handle + Flags (2) | Length (2) | payload |

The 12-bit connection handle identifies the baseband link; the top four
bits carry the packet-boundary and broadcast flags.
"""

from __future__ import annotations

import dataclasses
import struct

from repro.errors import PacketDecodeError, PacketEncodeError

#: HCI packet-type indicator of ACL data (Core 5.2 Vol 4 Part A §2).
HCI_ACL_DATA_PKT = 0x02

#: Packet-boundary flag: first automatically-flushable packet.
PB_FIRST_FLUSHABLE = 0b10

#: Packet-boundary flag: continuation fragment.
PB_CONTINUATION = 0b01

#: Largest connection-handle value (12 bits).
MAX_CONNECTION_HANDLE = 0x0EFF

ACL_HEADER_LEN = 5


@dataclasses.dataclass(frozen=True)
class AclPacket:
    """One HCI ACL data packet wrapping an L2CAP frame.

    :param handle: 12-bit connection handle of the baseband link.
    :param payload: the L2CAP frame bytes.
    :param pb_flag: packet-boundary flag (2 bits).
    :param bc_flag: broadcast flag (2 bits).
    """

    handle: int
    payload: bytes
    pb_flag: int = PB_FIRST_FLUSHABLE
    bc_flag: int = 0

    def encode(self) -> bytes:
        """Serialise to UART-style wire bytes (type octet included).

        :raises PacketEncodeError: for out-of-range handle or flags.
        """
        return encode_acl(self.handle, self.payload, self.pb_flag, self.bc_flag)

    @classmethod
    def decode(cls, raw: bytes) -> "AclPacket":
        """Parse wire bytes into an ACL packet.

        :raises PacketDecodeError: on truncation or wrong packet type.
        """
        if len(raw) < ACL_HEADER_LEN:
            raise PacketDecodeError(f"ACL packet too short: {len(raw)} bytes")
        packet_type, handle_and_flags, length = struct.unpack_from("<BHH", raw, 0)
        if packet_type != HCI_ACL_DATA_PKT:
            raise PacketDecodeError(f"not an ACL data packet (type={packet_type:#x})")
        payload = raw[ACL_HEADER_LEN:]
        if length != len(payload):
            raise PacketDecodeError(
                f"ACL length field {length} disagrees with payload {len(payload)}"
            )
        return cls(
            handle=handle_and_flags & 0x0FFF,
            payload=payload,
            pb_flag=(handle_and_flags >> 12) & 0b11,
            bc_flag=(handle_and_flags >> 14) & 0b11,
        )


def encode_acl(
    handle: int,
    payload: bytes,
    pb_flag: int = PB_FIRST_FLUSHABLE,
    bc_flag: int = 0,
) -> bytes:
    """Encode one ACL frame without the dataclass round trip.

    This is the single ACL serialiser — :meth:`AclPacket.encode`
    delegates here, so the function-call fast path the wire layer uses
    (one frame per L2CAP packet, no object construction per hop) can
    never diverge from the dataclass API.

    :raises PacketEncodeError: for out-of-range handle or flags, or an
        oversized payload.
    """
    if not 0 <= handle <= MAX_CONNECTION_HANDLE:
        raise PacketEncodeError(f"connection handle {handle:#x} out of range")
    if not 0 <= pb_flag <= 0b11 or not 0 <= bc_flag <= 0b11:
        raise PacketEncodeError("PB/BC flags are 2-bit values")
    if len(payload) > 0xFFFF:
        raise PacketEncodeError("ACL payload exceeds 65535 bytes")
    return (
        struct.pack(
            "<BHH",
            HCI_ACL_DATA_PKT,
            (handle & 0x0FFF) | (pb_flag << 12) | (bc_flag << 14),
            len(payload),
        )
        + payload
    )
