"""RFCOMM frame codec.

Frame layout (TS 07.10 basic option)::

    | Address (1) | Control (1) | Length (1 or 2) | payload | FCS (1) |

* Address: ``DLCI(6) | C/R | EA``.
* Control: frame type with the P/F bit.
* Length: EA-extended — one byte for payloads up to 127, two bytes above.
* FCS: over address+control for UIH frames; over address+control+length
  for SABM/UA/DM/DISC.

Field taxonomy, mirroring the paper's L2CAP split: the **address octet
(DLCI)** is the mutable core field (it selects the channel), the
control/length/FCS are dependent fields a conformant mux checks before
anything else, and the payload is application data.
"""

from __future__ import annotations

import dataclasses

from repro.errors import PacketDecodeError, PacketEncodeError
from repro.rfcomm.constants import FCS_TABLE, FrameType, POLL_FINAL, fcs


@dataclasses.dataclass
class RfcommFrame:
    """One RFCOMM frame.

    :param dlci: data link connection identifier (0-63).
    :param frame_type: SABM/UA/DM/DISC/UIH.
    :param payload: UIH payload bytes.
    :param poll_final: the P/F bit.
    :param command: the C/R bit (True = command, from the initiator).
    :param fcs_override: wrong FCS to emit instead of the computed one
        (fuzzing hook); None emits the valid FCS.
    """

    dlci: int
    frame_type: int
    payload: bytes = b""
    poll_final: bool = True
    command: bool = True
    fcs_override: int | None = None

    @property
    def address(self) -> int:
        """The address octet (DLCI | C/R | EA)."""
        return ((self.dlci & 0x3F) << 2) | (0x02 if self.command else 0x00) | 0x01

    @property
    def control(self) -> int:
        """The control octet (type | P/F)."""
        return (self.frame_type & 0xEF) | (POLL_FINAL if self.poll_final else 0)

    def encode(self) -> bytes:
        """Serialise the frame with a valid (or overridden) FCS.

        :raises PacketEncodeError: for out-of-range DLCI or payload.
        """
        if not 0 <= self.dlci <= 63:
            raise PacketEncodeError(f"DLCI {self.dlci} out of range")
        if len(self.payload) > 0x7FFF:
            raise PacketEncodeError("RFCOMM payload exceeds 32767 bytes")
        if len(self.payload) <= 0x7F:
            length = bytes([(len(self.payload) << 1) | 0x01])
        else:
            value = len(self.payload) << 1
            length = bytes([value & 0xFE, (value >> 8) & 0xFF])
        header = bytes([self.address, self.control]) + length
        if self.frame_type == FrameType.UIH:
            checked = header[:2]
        else:
            checked = header
        check = self.fcs_override if self.fcs_override is not None else fcs(checked)
        return header + self.payload + bytes([check & 0xFF])

    @classmethod
    def decode(cls, raw: bytes) -> "RfcommFrame":
        """Parse a frame and verify its FCS.

        :raises PacketDecodeError: on truncation, length mismatch or a
            bad frame check sequence.
        """
        address, control, offset, length = decode_framing(raw)
        return cls(
            dlci=(address >> 2) & 0x3F,
            frame_type=control & 0xEF,
            payload=raw[offset : offset + length],
            poll_final=bool(control & POLL_FINAL),
            command=bool(address & 0x02),
        )


def decode_framing(raw: bytes) -> tuple[int, int, int, int]:
    """Check a frame's framing; return (address, control, payload offset,
    payload length).

    The whole of :meth:`RfcommFrame.decode` but the frame object: the EA
    bit, the EA-extended length against the bytes present, and the FCS
    (over address+control for UIH, over the whole header otherwise).
    Bytes after the FCS are not the frame's; the caller decides what a
    trailing tail means. The RFCOMM mux parses every frame with this.

    :raises PacketDecodeError: on truncation, length mismatch or a bad
        frame check sequence.
    """
    if len(raw) < 4:
        raise PacketDecodeError(f"RFCOMM frame too short: {len(raw)} bytes")
    address = raw[0]
    control = raw[1]
    if not address & 0x01:
        raise PacketDecodeError("address EA bit not set (extended addresses unsupported)")
    length = raw[2]
    if length & 0x01:
        length >>= 1
        offset = 3
    else:
        if len(raw) < 5:
            raise PacketDecodeError("truncated two-byte length")
        length = (length >> 1) | (raw[3] << 7)
        offset = 4
    end = offset + length
    if end >= len(raw):
        raise PacketDecodeError("RFCOMM length disagrees with frame size")
    # fcs() over the checked header bytes, unrolled.
    table = FCS_TABLE
    crc = table[table[0xFF ^ address] ^ control]
    if control & 0xEF != FrameType.UIH:
        crc = table[crc ^ raw[2]]
        if offset == 4:
            crc = table[crc ^ raw[3]]
    if 0xFF - crc != raw[end]:
        raise PacketDecodeError("RFCOMM FCS check failed")
    return address, control, offset, length


def sabm(dlci: int) -> RfcommFrame:
    """Build a SABM (connect) frame."""
    return RfcommFrame(dlci, FrameType.SABM)


def ua(dlci: int) -> RfcommFrame:
    """Build a UA (accept) frame."""
    return RfcommFrame(dlci, FrameType.UA, command=False)


def dm(dlci: int) -> RfcommFrame:
    """Build a DM (reject) frame."""
    return RfcommFrame(dlci, FrameType.DM, command=False)


def disc(dlci: int) -> RfcommFrame:
    """Build a DISC (disconnect) frame."""
    return RfcommFrame(dlci, FrameType.DISC)


def uih(dlci: int, payload: bytes = b"") -> RfcommFrame:
    """Build a UIH (data) frame."""
    return RfcommFrame(dlci, FrameType.UIH, payload=payload, poll_final=False)
