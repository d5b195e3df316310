"""Fuzzer-side SDP client: browse a target's services over the air.

The exchange the paper's tool performs: open an L2CAP channel to PSM
0x0001, send a ServiceSearchAttributeRequest for the public browse root,
and parse the advertised (name, PSM, service class) triples out of the
attribute lists.
"""

from __future__ import annotations

import dataclasses
import functools

from repro.core.packet_queue import PacketQueue
from repro.errors import PacketDecodeError, ScanError
from repro.l2cap.constants import CommandCode, ConnectionResult, Psm
from repro.l2cap.packets import (
    L2capPacket,
    connection_request,
    disconnection_request,
)
from repro.sdp.constants import (
    AttributeId,
    DEFAULT_MAX_ATTRIBUTE_BYTES,
    PduId,
    ProtocolUuid,
    ServiceClass,
)
from repro.sdp.data_elements import DataElement, ElementType, sequence, uint32, uuid16
from repro.sdp.pdu import (
    SdpPdu,
    ServiceSearchAttributeRequest,
    ServiceSearchAttributeResponse,
)


@dataclasses.dataclass(frozen=True)
class BrowsedService:
    """One service discovered over the air."""

    psm: int
    name: str
    service_class: int

    #: Interface-compatibility shims with ServiceRecord (the scanner only
    #: needs .psm and .name).
    @property
    def requires_pairing(self) -> bool:
        """Unknown from SDP alone; the port probe decides this."""
        return False


class SdpClient:
    """Performs a browse over a live packet queue."""

    def __init__(self, queue: PacketQueue, our_cid: int = 0x0F00) -> None:
        self.queue = queue
        self.our_cid = our_cid

    def browse(self) -> tuple[BrowsedService, ...]:
        """Full browse: connect, query, parse, disconnect.

        :raises ScanError: when the SDP port cannot be reached or the
            response cannot be parsed.
        """
        target_cid = self._connect()
        try:
            parameters = self._query(target_cid)
        finally:
            self._disconnect(target_cid)
        return _services_in(bytes(parameters))

    # -- steps ----------------------------------------------------------------------

    def _connect(self) -> int:
        responses = self.queue.exchange(
            connection_request(
                psm=Psm.SDP, scid=self.our_cid, identifier=self.queue.take_identifier()
            )
        )
        for response in responses:
            if (
                response.code == CommandCode.CONNECTION_RSP
                and response.fields.get("result") == ConnectionResult.SUCCESS
            ):
                return response.fields.get("dcid", 0)
        raise ScanError("SDP port did not accept a connection")

    def _query(self, target_cid: int) -> bytes:
        """Send the browse request; the response PDU's parameters."""
        request = ServiceSearchAttributeRequest(
            search_pattern=sequence(uuid16(ServiceClass.PUBLIC_BROWSE_ROOT)),
            max_attribute_bytes=DEFAULT_MAX_ATTRIBUTE_BYTES,
            attribute_id_list=sequence(uint32(0x0000FFFF)),  # all attributes
        )
        pdu = SdpPdu(
            PduId.SERVICE_SEARCH_ATTRIBUTE_REQUEST,
            transaction_id=self.queue.take_identifier(),
            parameters=request.encode(),
        )
        data_frame = L2capPacket(
            code=0, identifier=0, header_cid=target_cid, tail=pdu.encode(),
            fill_defaults=False,
        )
        responses = self.queue.exchange(data_frame)
        for response in responses:
            if response.header_cid == self.our_cid:
                try:
                    reply = SdpPdu.decode(response.tail)
                except PacketDecodeError as exc:
                    raise ScanError(f"undecodable SDP reply: {exc}") from exc
                if reply.pdu_id == PduId.SERVICE_SEARCH_ATTRIBUTE_RESPONSE:
                    return reply.parameters
                raise ScanError(f"SDP error reply (pdu id {reply.pdu_id:#x})")
        raise ScanError("no SDP reply received")

    def _disconnect(self, target_cid: int) -> None:
        self.queue.exchange(
            disconnection_request(
                dcid=target_cid,
                scid=self.our_cid,
                identifier=self.queue.take_identifier(),
            )
        )


# -- parsing ------------------------------------------------------------------------


@functools.lru_cache(maxsize=64)
def _services_in(parameters: bytes) -> tuple[BrowsedService, ...]:
    """The services a ServiceSearchAttributeResponse lists.

    Memoized on the response bytes: every campaign against a device
    browses it once, and the devices of one profile answer with the
    same bytes, so a bounded memo skips re-decoding the attribute tree
    (the exchange itself still goes over the air).

    :raises PacketDecodeError: when the attribute lists do not decode.
    :raises ScanError: when they are not a sequence.
    """
    lists = ServiceSearchAttributeResponse.decode(parameters).attribute_lists
    if lists.element_type is not ElementType.SEQUENCE:
        raise ScanError("attribute lists are not a sequence")
    services = []
    for record_list in lists.value:
        service = _parse_record(record_list)
        if service is not None:
            services.append(service)
    return tuple(services)


def _parse_record(record_list: DataElement) -> BrowsedService | None:
    if record_list.element_type is not ElementType.SEQUENCE:
        return None
    attributes = _pairs(record_list)
    psm = _psm_from_protocol_list(
        attributes.get(AttributeId.PROTOCOL_DESCRIPTOR_LIST)
    )
    if psm is None:
        return None
    name_element = attributes.get(AttributeId.SERVICE_NAME)
    name = str(name_element.value) if name_element is not None else f"psm-{psm:#x}"
    class_element = attributes.get(AttributeId.SERVICE_CLASS_ID_LIST)
    service_class = 0
    if class_element is not None and class_element.value:
        service_class = int(class_element.value[0].value)
    return BrowsedService(psm=psm, name=name, service_class=service_class)


def _pairs(record_list: DataElement) -> dict[int, DataElement]:
    """Interpret a flat (id, value, id, value, ...) attribute list."""
    elements = list(record_list.value)
    attributes: dict[int, DataElement] = {}
    for i in range(0, len(elements) - 1, 2):
        key = elements[i]
        if key.element_type is ElementType.UNSIGNED_INT:
            attributes[int(key.value)] = elements[i + 1]
    return attributes


def _psm_from_protocol_list(protocol_list: DataElement | None) -> int | None:
    """Extract the L2CAP PSM from a protocol descriptor list."""
    if protocol_list is None or protocol_list.element_type is not ElementType.SEQUENCE:
        return None
    for descriptor in protocol_list.value:
        if descriptor.element_type is not ElementType.SEQUENCE:
            continue
        children = list(descriptor.value)
        if not children:
            continue
        head = children[0]
        if (
            head.element_type is ElementType.UUID
            and int(head.value) == ProtocolUuid.L2CAP
            and len(children) > 1
            and children[1].element_type is ElementType.UNSIGNED_INT
        ):
            return int(children[1].value)
    return None
