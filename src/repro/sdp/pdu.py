"""SDP PDU framing and parameter codecs (Core 5.2 Vol 3 Part B §4).

PDU header: ``pdu_id(1) | transaction_id(2, BE) | parameter_length(2, BE)``
followed by PDU-specific parameters. Requests and responses end with a
continuation-state field; this implementation always answers within one
PDU, so the continuation state is the empty marker ``0x00``.
"""

from __future__ import annotations

import dataclasses
import struct

from repro.codec import frozen_instance
from repro.errors import PacketDecodeError
from repro.sdp.constants import PduId
from repro.sdp.data_elements import DataElement

PDU_HEADER_LEN = 5

#: The empty continuation state (no continuation).
NO_CONTINUATION = b"\x00"


#: The PDU header: pdu_id, transaction_id, parameter_length (big-endian).
_HEADER = struct.Struct(">BHH")
_HALFWORD = struct.Struct(">H")
_HANDLE_AND_MAX = struct.Struct(">IH")
_UNPACK_HEADER = _HEADER.unpack_from
_PACK_HEADER = _HEADER.pack

#: The requests' fixed fields: a max count or max byte count, and a
#: ServiceAttributeRequest's record handle with its max byte count.
#: The request encoders write them with these, and so does the SDP
#: mutator, which assembles request parameters as bytes.
pack_u16 = _HALFWORD.pack
pack_handle_and_max = _HANDLE_AND_MAX.pack


def encode_pdu(pdu_id: int, transaction_id: int, parameters: bytes) -> bytes:
    """Serialise one PDU: header + parameters (see :meth:`SdpPdu.encode`)."""
    return (
        _PACK_HEADER(pdu_id & 0xFF, transaction_id & 0xFFFF, len(parameters))
        + parameters
    )


@dataclasses.dataclass(frozen=True)
class SdpPdu:
    """One SDP PDU: header plus raw parameters."""

    pdu_id: int
    transaction_id: int
    parameters: bytes

    def encode(self) -> bytes:
        """Serialise header + parameters."""
        return encode_pdu(self.pdu_id, self.transaction_id, self.parameters)

    @classmethod
    def decode(cls, raw: bytes) -> "SdpPdu":
        """Parse a PDU.

        :raises PacketDecodeError: on truncation or length mismatch.
        """
        if len(raw) < PDU_HEADER_LEN:
            raise PacketDecodeError(f"SDP PDU too short: {len(raw)} bytes")
        pdu_id, transaction_id, param_len = _UNPACK_HEADER(raw)
        parameters = raw[PDU_HEADER_LEN:]
        if param_len != len(parameters):
            raise PacketDecodeError(
                f"SDP parameter length {param_len} disagrees with "
                f"{len(parameters)} bytes present"
            )
        return frozen_instance(
            cls,
            {
                "pdu_id": pdu_id,
                "transaction_id": transaction_id,
                "parameters": parameters,
            },
        )


# -- parameter codecs --------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ServiceSearchAttributeRequest:
    """Parameters of a ServiceSearchAttributeRequest."""

    search_pattern: DataElement  # sequence of UUIDs
    max_attribute_bytes: int
    attribute_id_list: DataElement  # sequence of u16 ids / u32 ranges

    def encode(self) -> bytes:
        return (
            self.search_pattern.encode()
            + pack_u16(self.max_attribute_bytes)
            + self.attribute_id_list.encode()
            + NO_CONTINUATION
        )

    @classmethod
    def decode(cls, raw: bytes) -> "ServiceSearchAttributeRequest":
        pattern, offset = DataElement.decode_prefix(raw)
        if offset + 2 > len(raw):
            raise PacketDecodeError("truncated max-attribute-bytes")
        (max_bytes,) = _HALFWORD.unpack_from(raw, offset)
        offset += 2
        id_list, offset = DataElement.decode_prefix(raw, offset)
        if offset >= len(raw):
            raise PacketDecodeError("missing continuation state")
        return frozen_instance(
            cls,
            {
                "search_pattern": pattern,
                "max_attribute_bytes": max_bytes,
                "attribute_id_list": id_list,
            },
        )


@dataclasses.dataclass(frozen=True)
class ServiceSearchAttributeResponse:
    """Parameters of a ServiceSearchAttributeResponse."""

    attribute_lists: DataElement  # sequence of per-record attribute lists

    def encode(self) -> bytes:
        body = self.attribute_lists.encode()
        return struct.pack(">H", len(body)) + body + NO_CONTINUATION

    @classmethod
    def decode(cls, raw: bytes) -> "ServiceSearchAttributeResponse":
        if len(raw) < 3:
            raise PacketDecodeError("truncated ServiceSearchAttributeResponse")
        (byte_count,) = struct.unpack_from(">H", raw, 0)
        body = raw[2 : 2 + byte_count]
        if len(body) != byte_count:
            raise PacketDecodeError("attribute-list byte count disagrees")
        return cls(DataElement.decode(body))


@dataclasses.dataclass(frozen=True)
class ServiceSearchRequest:
    """Parameters of a ServiceSearchRequest."""

    search_pattern: DataElement
    max_record_count: int

    def encode(self) -> bytes:
        return (
            self.search_pattern.encode()
            + pack_u16(self.max_record_count)
            + NO_CONTINUATION
        )

    @classmethod
    def decode(cls, raw: bytes) -> "ServiceSearchRequest":
        pattern, offset = DataElement.decode_prefix(raw)
        if offset + 2 > len(raw):
            raise PacketDecodeError("truncated max-record-count")
        (max_count,) = _HALFWORD.unpack_from(raw, offset)
        return frozen_instance(
            cls, {"search_pattern": pattern, "max_record_count": max_count}
        )


@dataclasses.dataclass(frozen=True)
class ServiceSearchResponse:
    """Parameters of a ServiceSearchResponse."""

    handles: tuple[int, ...]

    def encode(self) -> bytes:
        body = b"".join(struct.pack(">I", handle) for handle in self.handles)
        return (
            struct.pack(">HH", len(self.handles), len(self.handles))
            + body
            + NO_CONTINUATION
        )

    @classmethod
    def decode(cls, raw: bytes) -> "ServiceSearchResponse":
        if len(raw) < 4:
            raise PacketDecodeError("truncated ServiceSearchResponse")
        total, current = struct.unpack_from(">HH", raw, 0)
        handles = []
        offset = 4
        for _ in range(current):
            if offset + 4 > len(raw):
                raise PacketDecodeError("truncated record handle list")
            (handle,) = struct.unpack_from(">I", raw, offset)
            handles.append(handle)
            offset += 4
        return cls(tuple(handles))


@dataclasses.dataclass(frozen=True)
class ServiceAttributeRequest:
    """Parameters of a ServiceAttributeRequest."""

    record_handle: int
    max_attribute_bytes: int
    attribute_id_list: DataElement

    def encode(self) -> bytes:
        return (
            pack_handle_and_max(self.record_handle, self.max_attribute_bytes)
            + self.attribute_id_list.encode()
            + NO_CONTINUATION
        )

    @classmethod
    def decode(cls, raw: bytes) -> "ServiceAttributeRequest":
        if len(raw) < 6:
            raise PacketDecodeError("truncated ServiceAttributeRequest")
        handle, max_bytes = _HANDLE_AND_MAX.unpack_from(raw, 0)
        id_list, _offset = DataElement.decode_prefix(raw, 6)
        return frozen_instance(
            cls,
            {
                "record_handle": handle,
                "max_attribute_bytes": max_bytes,
                "attribute_id_list": id_list,
            },
        )


@dataclasses.dataclass(frozen=True)
class ServiceAttributeResponse:
    """Parameters of a ServiceAttributeResponse."""

    attribute_list: DataElement

    def encode(self) -> bytes:
        body = self.attribute_list.encode()
        return struct.pack(">H", len(body)) + body + NO_CONTINUATION

    @classmethod
    def decode(cls, raw: bytes) -> "ServiceAttributeResponse":
        if len(raw) < 3:
            raise PacketDecodeError("truncated ServiceAttributeResponse")
        (byte_count,) = struct.unpack_from(">H", raw, 0)
        body = raw[2 : 2 + byte_count]
        if len(body) != byte_count:
            raise PacketDecodeError("attribute-list byte count disagrees")
        return cls(DataElement.decode(body))


@dataclasses.dataclass(frozen=True)
class ErrorResponse:
    """Parameters of an SDP ErrorResponse."""

    error_code: int

    def encode(self) -> bytes:
        return struct.pack(">H", self.error_code)

    @classmethod
    def decode(cls, raw: bytes) -> "ErrorResponse":
        if len(raw) < 2:
            raise PacketDecodeError("truncated ErrorResponse")
        (code,) = struct.unpack_from(">H", raw, 0)
        return cls(code)


def request(pdu_id: PduId, transaction_id: int, params) -> bytes:
    """Frame *params* (a parameter dataclass) as a full PDU."""
    return encode_pdu(pdu_id, transaction_id, params.encode())
