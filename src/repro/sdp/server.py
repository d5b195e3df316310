"""Device-side SDP server.

Answers the three SDP request PDUs over the device's SDP L2CAP channel.
Requests with broken syntax get an Error Response — which also makes the
SDP server itself a fuzzable attack surface (the paper's §V notes the
L2Fuzz methodology extends to SDP).
"""

from __future__ import annotations

import functools

from repro.errors import PacketDecodeError
from repro.sdp.constants import ErrorCode, PduId
from repro.sdp.data_elements import DataElement, ElementType, sequence
from repro.sdp.pdu import (
    ErrorResponse,
    SdpPdu,
    ServiceAttributeRequest,
    ServiceAttributeResponse,
    ServiceSearchAttributeRequest,
    ServiceSearchAttributeResponse,
    ServiceSearchRequest,
    ServiceSearchResponse,
)
from repro.sdp.records import SdpRecord, build_records
from repro.stack.services import ServiceDirectory


def _uuids_in(pattern: DataElement) -> list[int]:
    """Extract the UUID values from a search-pattern sequence."""
    if pattern.element_type is not ElementType.SEQUENCE:
        raise PacketDecodeError("search pattern is not a sequence")
    uuids = []
    for child in pattern.value:
        if child.element_type is ElementType.UUID:
            uuids.append(int(child.value))
    return uuids


def _attribute_ranges(id_list: DataElement) -> list[tuple[int, int]]:
    """Turn an attribute-ID list into inclusive (low, high) ranges."""
    if id_list.element_type is not ElementType.SEQUENCE:
        raise PacketDecodeError("attribute ID list is not a sequence")
    ranges = []
    for child in id_list.value:
        if child.element_type is not ElementType.UNSIGNED_INT:
            raise PacketDecodeError("attribute ID is not an unsigned int")
        if child.width == 4:
            value = int(child.value)
            ranges.append((value >> 16, value & 0xFFFF))
        else:
            ranges.append((int(child.value), int(child.value)))
    return ranges


@functools.lru_cache(maxsize=256)
def _search_attribute_body(
    matches: tuple[SdpRecord, ...], ranges: tuple[tuple[int, int], ...]
) -> bytes:
    """Encoded ServiceSearchAttributeResponse parameters.

    The body depends only on the matched records and the requested
    ranges — both immutable, and equal across fresh devices of one
    profile — so every server in the process shares one bounded memo
    and a repeated browse costs a dict lookup instead of a re-encode.
    """
    lists = sequence(*(record.attribute_list(list(ranges)) for record in matches))
    return ServiceSearchAttributeResponse(lists).encode()


class SdpServer:
    """Serves the SDP records of one device."""

    def __init__(self, directory: ServiceDirectory) -> None:
        self.records: tuple[SdpRecord, ...] = build_records(directory)
        self._by_handle = {record.handle: record for record in self.records}
        #: Every UUID some record matches: a search naming any other UUID
        #: matches nothing, without a scan.
        self._uuids = frozenset(
            uuid for record in self.records for uuid in record.uuids
        )

    # -- dispatch ------------------------------------------------------------------

    def handle_request(self, raw: bytes) -> bytes:
        """Process one request PDU; always returns a response PDU."""
        try:
            pdu = SdpPdu.decode(raw)
        except PacketDecodeError:
            return self._error(0, ErrorCode.INVALID_PDU_SIZE)
        try:
            if pdu.pdu_id == PduId.SERVICE_SEARCH_REQUEST:
                return self._on_service_search(pdu)
            if pdu.pdu_id == PduId.SERVICE_ATTRIBUTE_REQUEST:
                return self._on_service_attribute(pdu)
            if pdu.pdu_id == PduId.SERVICE_SEARCH_ATTRIBUTE_REQUEST:
                return self._on_service_search_attribute(pdu)
        except PacketDecodeError:
            return self._error(pdu.transaction_id, ErrorCode.INVALID_REQUEST_SYNTAX)
        return self._error(pdu.transaction_id, ErrorCode.INVALID_REQUEST_SYNTAX)

    # -- handlers -------------------------------------------------------------------

    def _matching_records(self, pattern: DataElement) -> list[SdpRecord]:
        uuids = _uuids_in(pattern)
        if not uuids or not self._uuids.issuperset(uuids):
            return []
        return [
            record
            for record in self.records
            if all(record.matches_uuid(uuid) for uuid in uuids)
        ]

    def _on_service_search(self, pdu: SdpPdu) -> bytes:
        req = ServiceSearchRequest.decode(pdu.parameters)
        matches = self._matching_records(req.search_pattern)
        handles = tuple(record.handle for record in matches[: req.max_record_count])
        response = ServiceSearchResponse(handles)
        return SdpPdu(
            PduId.SERVICE_SEARCH_RESPONSE, pdu.transaction_id, response.encode()
        ).encode()

    def _on_service_attribute(self, pdu: SdpPdu) -> bytes:
        req = ServiceAttributeRequest.decode(pdu.parameters)
        record = self._by_handle.get(req.record_handle)
        if record is None:
            return self._error(
                pdu.transaction_id, ErrorCode.INVALID_SERVICE_RECORD_HANDLE
            )
        ranges = _attribute_ranges(req.attribute_id_list)
        response = ServiceAttributeResponse(record.attribute_list(ranges))
        return SdpPdu(
            PduId.SERVICE_ATTRIBUTE_RESPONSE, pdu.transaction_id, response.encode()
        ).encode()

    def _on_service_search_attribute(self, pdu: SdpPdu) -> bytes:
        req = ServiceSearchAttributeRequest.decode(pdu.parameters)
        matches = self._matching_records(req.search_pattern)
        ranges = _attribute_ranges(req.attribute_id_list)
        return SdpPdu(
            PduId.SERVICE_SEARCH_ATTRIBUTE_RESPONSE,
            pdu.transaction_id,
            _search_attribute_body(tuple(matches), tuple(ranges)),
        ).encode()

    def _error(self, transaction_id: int, code: ErrorCode) -> bytes:
        return SdpPdu(
            PduId.ERROR_RESPONSE, transaction_id, ErrorResponse(code).encode()
        ).encode()
