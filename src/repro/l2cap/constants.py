"""Bluetooth 5.2 L2CAP protocol constants.

Sources: Bluetooth Core Specification 5.2, Vol 3 Part A (L2CAP), plus the
field taxonomy of the L2Fuzz paper (Fig. 3, Fig. 6, Table IV). Everything
the codec, the state machine, the virtual stacks and the fuzzer need to
agree on lives here.
"""

from __future__ import annotations

import enum

# ---------------------------------------------------------------------------
# Channel identifiers (Core 5.2 Vol 3 Part A §2.1)
# ---------------------------------------------------------------------------

#: Signaling channel on ACL-U logical links; the fixed ``F`` field of the
#: paper's taxonomy — L2CAP commands always travel on CID 0x0001.
SIGNALING_CID = 0x0001

#: Connectionless reception channel.
CONNECTIONLESS_CID = 0x0002

#: First dynamically allocatable CID (Core 5.2 Vol 3 Part A Table 2.1).
DYNAMIC_CID_MIN = 0x0040

#: Last dynamically allocatable CID.
DYNAMIC_CID_MAX = 0xFFFF

# ---------------------------------------------------------------------------
# Sizes (Fig. 3 of the paper)
# ---------------------------------------------------------------------------

#: Bytes in the L2CAP basic header (Payload Length + Header Channel ID).
L2CAP_HEADER_LEN = 4

#: Bytes in an L2CAP command header (Code + Identifier + Data Length).
COMMAND_HEADER_LEN = 4

#: Maximum L2CAP payload ("L2CAP Payload can be up to 65,535 bytes").
MAX_L2CAP_PAYLOAD = 65_535

#: Minimum signaling MTU every BR/EDR device must accept (Core 5.2).
MIN_SIGNALING_MTU = 48

#: Default signaling MTU used by our virtual stacks; mirrors the common
#: BR/EDR default of 672 bytes.
DEFAULT_SIGNALING_MTU = 672


class CommandCode(enum.IntEnum):
    """The 26 L2CAP signaling command codes of Bluetooth 5.2.

    Paper §II.A: "there are 26 L2CAP commands in Bluetooth 5.2, and each
    command has different Data Fields."
    """

    COMMAND_REJECT = 0x01
    CONNECTION_REQ = 0x02
    CONNECTION_RSP = 0x03
    CONFIGURATION_REQ = 0x04
    CONFIGURATION_RSP = 0x05
    DISCONNECTION_REQ = 0x06
    DISCONNECTION_RSP = 0x07
    ECHO_REQ = 0x08
    ECHO_RSP = 0x09
    INFORMATION_REQ = 0x0A
    INFORMATION_RSP = 0x0B
    CREATE_CHANNEL_REQ = 0x0C
    CREATE_CHANNEL_RSP = 0x0D
    MOVE_CHANNEL_REQ = 0x0E
    MOVE_CHANNEL_RSP = 0x0F
    MOVE_CHANNEL_CONFIRMATION_REQ = 0x10
    MOVE_CHANNEL_CONFIRMATION_RSP = 0x11
    CONNECTION_PARAMETER_UPDATE_REQ = 0x12
    CONNECTION_PARAMETER_UPDATE_RSP = 0x13
    LE_CREDIT_BASED_CONNECTION_REQ = 0x14
    LE_CREDIT_BASED_CONNECTION_RSP = 0x15
    FLOW_CONTROL_CREDIT_IND = 0x16
    CREDIT_BASED_CONNECTION_REQ = 0x17
    CREDIT_BASED_CONNECTION_RSP = 0x18
    CREDIT_BASED_RECONFIGURE_REQ = 0x19
    CREDIT_BASED_RECONFIGURE_RSP = 0x1A


#: Hot-path lookup table: value → name. ``enum.EnumType.__call__`` is a
#: surprisingly expensive constructor (a 20k-packet campaign performs
#: ~600k of them); decode, dispatch and sniffer classification resolve
#: codes through dict hits instead.
COMMAND_NAME_BY_VALUE: dict[int, str] = {
    member.value: member.name for member in CommandCode
}


class RejectReason(enum.IntEnum):
    """Reason codes of the Command Reject response (Core 5.2 Table 4.4).

    These are the rejections the paper's core-field taxonomy is built to
    avoid: mutating ``F``/``D`` provokes ``COMMAND_NOT_UNDERSTOOD``, an
    abnormal CIDP provokes ``INVALID_CID``, and an oversized tail provokes
    ``SIGNALING_MTU_EXCEEDED``.
    """

    COMMAND_NOT_UNDERSTOOD = 0x0000
    SIGNALING_MTU_EXCEEDED = 0x0001
    INVALID_CID = 0x0002


class ConnectionResult(enum.IntEnum):
    """Result codes of Connection/Create-Channel responses."""

    SUCCESS = 0x0000
    PENDING = 0x0001
    REFUSED_PSM_NOT_SUPPORTED = 0x0002
    REFUSED_SECURITY_BLOCK = 0x0003
    REFUSED_NO_RESOURCES = 0x0004
    REFUSED_CONTROLLER_ID_NOT_SUPPORTED = 0x0005
    REFUSED_INVALID_SCID = 0x0006
    REFUSED_SCID_ALREADY_ALLOCATED = 0x0007


class ConfigResult(enum.IntEnum):
    """Result codes of the Configuration Response."""

    SUCCESS = 0x0000
    UNACCEPTABLE_PARAMETERS = 0x0001
    REJECTED = 0x0002
    UNKNOWN_OPTIONS = 0x0003
    PENDING = 0x0004
    FLOW_SPEC_REJECTED = 0x0005


class MoveResult(enum.IntEnum):
    """Result codes of the Move Channel Response."""

    SUCCESS = 0x0000
    PENDING = 0x0001
    REFUSED_CONTROLLER_ID_NOT_SUPPORTED = 0x0002
    REFUSED_NEW_CONTROLLER_ID_IS_SAME = 0x0003
    REFUSED_CONFIGURATION_NOT_SUPPORTED = 0x0004
    REFUSED_COLLISION = 0x0005
    REFUSED_NOT_ALLOWED = 0x0006


class InfoType(enum.IntEnum):
    """InfoType values of the Information Request."""

    CONNECTIONLESS_MTU = 0x0001
    EXTENDED_FEATURES = 0x0002
    FIXED_CHANNELS = 0x0003


class InfoResult(enum.IntEnum):
    """Result values of the Information Response."""

    SUCCESS = 0x0000
    NOT_SUPPORTED = 0x0001


class ConfigOptionType(enum.IntEnum):
    """Configuration option types (Core 5.2 Vol 3 Part A §5)."""

    MTU = 0x01
    FLUSH_TIMEOUT = 0x02
    QOS = 0x03
    RETRANSMISSION_AND_FLOW_CONTROL = 0x04
    FCS = 0x05
    EXTENDED_FLOW_SPEC = 0x06
    EXTENDED_WINDOW_SIZE = 0x07


#: Value set for per-packet membership tests (avoids rebuilding the set
#: from the enum inside the stack engine's option handler).
CONFIG_OPTION_TYPE_VALUES = frozenset(member.value for member in ConfigOptionType)


# ---------------------------------------------------------------------------
# PSM (Protocol/Service Multiplexer) assignments — the "port numbers"
# ---------------------------------------------------------------------------


class Psm(enum.IntEnum):
    """Well-known fixed PSM values (Bluetooth SIG assigned numbers).

    PSMs play the role of service ports in the paper's target-scanning
    phase; SDP (0x0001) is the fall-back port that never requires pairing.
    """

    SDP = 0x0001
    RFCOMM = 0x0003
    TCS_BIN = 0x0005
    TCS_BIN_CORDLESS = 0x0007
    BNEP = 0x000F
    HID_CONTROL = 0x0011
    HID_INTERRUPT = 0x0013
    UPNP = 0x0015
    AVCTP = 0x0017
    AVDTP = 0x0019
    AVCTP_BROWSING = 0x001B
    UDI_C_PLANE = 0x001D
    ATT = 0x001F
    THREED_SP = 0x0021
    IPSP = 0x0023
    OTS = 0x0025


def is_valid_psm(psm: int) -> bool:
    """Return True if *psm* is well-formed per the 5.2 specification.

    A valid PSM is odd (least-significant bit of the least-significant
    byte set) and has an even most-significant byte.
    """
    if not 0x0000 < psm <= 0xFFFF:
        return False
    if psm & 0x0001 == 0:  # must be odd
        return False
    return (psm >> 8) & 0x01 == 0  # MSB must be even


# Abnormal PSM ranges used for mutation (paper Table IV). Each tuple is an
# inclusive (start, end) hex range whose values are *not* well-formed PSMs.
ABNORMAL_PSM_RANGES = (
    (0x0100, 0x01FF),
    (0x0300, 0x03FF),
    (0x0500, 0x05FF),
    (0x0700, 0x07FF),
    (0x0900, 0x09FF),
    (0x0B00, 0x0BFF),
    (0x0D00, 0x0DFF),
)

#: CIDP mutation range (paper Table IV): the *normal* dynamic-CID range —
#: values are legal but ignore the device's dynamic allocation.
CIDP_MUTATION_RANGE = (DYNAMIC_CID_MIN, DYNAMIC_CID_MAX)
