"""SDP protocol constants (Core 5.2 Vol 3 Part B).

The Service Discovery Protocol is the port the paper's target-scanning
phase leans on: it is "supported by every Bluetooth device" and never
requires pairing (§III.B). These constants cover the PDU vocabulary,
the well-known attribute IDs, and the service-class UUIDs our virtual
devices advertise.
"""

from __future__ import annotations

import enum


class PduId(enum.IntEnum):
    """SDP PDU identifiers."""

    ERROR_RESPONSE = 0x01
    SERVICE_SEARCH_REQUEST = 0x02
    SERVICE_SEARCH_RESPONSE = 0x03
    SERVICE_ATTRIBUTE_REQUEST = 0x04
    SERVICE_ATTRIBUTE_RESPONSE = 0x05
    SERVICE_SEARCH_ATTRIBUTE_REQUEST = 0x06
    SERVICE_SEARCH_ATTRIBUTE_RESPONSE = 0x07


class ErrorCode(enum.IntEnum):
    """SDP Error Response codes."""

    INVALID_SDP_VERSION = 0x0001
    INVALID_SERVICE_RECORD_HANDLE = 0x0002
    INVALID_REQUEST_SYNTAX = 0x0003
    INVALID_PDU_SIZE = 0x0004
    INVALID_CONTINUATION_STATE = 0x0005
    INSUFFICIENT_RESOURCES = 0x0006


class AttributeId(enum.IntEnum):
    """Universal service attribute IDs."""

    SERVICE_RECORD_HANDLE = 0x0000
    SERVICE_CLASS_ID_LIST = 0x0001
    SERVICE_RECORD_STATE = 0x0002
    SERVICE_ID = 0x0003
    PROTOCOL_DESCRIPTOR_LIST = 0x0004
    BROWSE_GROUP_LIST = 0x0005
    SERVICE_NAME = 0x0100


class ServiceClass(enum.IntEnum):
    """Well-known 16-bit service-class UUIDs."""

    SERVICE_DISCOVERY_SERVER = 0x1000
    PUBLIC_BROWSE_ROOT = 0x1002
    SERIAL_PORT = 0x1101
    PANU = 0x1115
    AUDIO_SOURCE = 0x110A
    AUDIO_SINK = 0x110B
    AV_REMOTE_CONTROL = 0x110E
    HID_SERVICE = 0x1124


class ProtocolUuid(enum.IntEnum):
    """Protocol UUIDs used in protocol descriptor lists."""

    SDP = 0x0001
    RFCOMM = 0x0003
    OBEX = 0x0008
    BNEP = 0x000F
    HIDP = 0x0011
    AVCTP = 0x0017
    AVDTP = 0x0019
    L2CAP = 0x0100


#: First service-record handle our servers hand out (0x0000..0xFFFF are
#: reserved).
FIRST_RECORD_HANDLE = 0x0001_0000

#: Largest attribute byte count a client may request per response.
DEFAULT_MAX_ATTRIBUTE_BYTES = 0xFFFF
