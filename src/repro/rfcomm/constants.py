"""RFCOMM protocol constants (ETSI TS 07.10 subset used by Bluetooth).

RFCOMM is the serial-port emulation layer riding on L2CAP PSM 0x0003.
The paper's §V argues the L2Fuzz methodology transfers to it: RFCOMM has
its own state machine (per-DLCI multiplexer states) and its own
core-vs-application field split (the DLCI/address plumbing vs the
payload), so state guiding and core-field mutating apply unchanged.
"""

from __future__ import annotations

import enum


class FrameType(enum.IntEnum):
    """RFCOMM frame-type control values (P/F bit cleared)."""

    SABM = 0x2F  # Set Asynchronous Balanced Mode (connect)
    UA = 0x63  # Unnumbered Acknowledgement (accept)
    DM = 0x0F  # Disconnected Mode (reject / no such channel)
    DISC = 0x43  # Disconnect
    UIH = 0xEF  # Unnumbered Information with Header check (data)


#: The Poll/Final bit within the control field.
POLL_FINAL = 0x10

#: DLCI 0 is the multiplexer control channel; it must be opened first.
CONTROL_DLCI = 0

#: Largest DLCI value (6 bits).
MAX_DLCI = 63


# -- FCS (CRC-8, polynomial x^8 + x^2 + x + 1, reflected) ----------------------


def _build_fcs_table() -> tuple[int, ...]:
    table = []
    for value in range(256):
        crc = value
        for _ in range(8):
            if crc & 0x01:
                crc = (crc >> 1) ^ 0xE0
            else:
                crc >>= 1
        table.append(crc)
    return tuple(table)


#: CRC-8 lookup: the FCS of bytes b0..bn is ``0xFF - crc`` after
#: ``crc = FCS_TABLE[crc ^ b]`` for each byte, from ``crc = 0xFF``.
FCS_TABLE = _build_fcs_table()


def fcs(data: bytes) -> int:
    """Compute the RFCOMM frame check sequence over *data*."""
    crc = 0xFF
    for byte in data:
        crc = FCS_TABLE[crc ^ byte]
    return 0xFF - crc
