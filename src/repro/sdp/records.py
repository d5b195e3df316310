"""SDP service records built from a device's service directory.

Each L2CAP service a device advertises becomes one SDP record carrying
the universal attributes a scanner needs: the record handle, the service
class, the protocol descriptor list (which is where the L2CAP PSM is
published) and the human-readable name.
"""

from __future__ import annotations

import dataclasses

from repro.l2cap.constants import Psm
from repro.sdp.constants import (
    AttributeId,
    FIRST_RECORD_HANDLE,
    ProtocolUuid,
    ServiceClass,
)
from repro.sdp.data_elements import DataElement, sequence, text, uint, uint32, uuid16
from repro.stack.services import ServiceDirectory, ServiceRecord


#: PSM → advertised service-class UUID for the catalogue our virtual
#: devices use.
_SERVICE_CLASS_BY_PSM = {
    Psm.SDP: ServiceClass.SERVICE_DISCOVERY_SERVER,
    Psm.RFCOMM: ServiceClass.SERIAL_PORT,
    Psm.AVDTP: ServiceClass.AUDIO_SINK,
    Psm.AVCTP: ServiceClass.AV_REMOTE_CONTROL,
    Psm.HID_CONTROL: ServiceClass.HID_SERVICE,
    Psm.BNEP: ServiceClass.PANU,
}


@dataclasses.dataclass(frozen=True)
class SdpRecord:
    """One materialised service record.

    :param handle: 32-bit service record handle.
    :param service: the underlying L2CAP service.
    :param service_class: advertised service-class UUID.
    """

    handle: int
    service: ServiceRecord
    service_class: int

    def attributes(self) -> dict[int, DataElement]:
        """The record's attribute map (id → data element)."""
        protocol_list = sequence(
            sequence(uuid16(ProtocolUuid.L2CAP), uint(self.service.psm)),
        )
        return {
            AttributeId.SERVICE_RECORD_HANDLE: uint32(self.handle),
            AttributeId.SERVICE_CLASS_ID_LIST: sequence(uuid16(self.service_class)),
            AttributeId.PROTOCOL_DESCRIPTOR_LIST: protocol_list,
            AttributeId.SERVICE_NAME: text(self.service.name),
        }

    @property
    def uuids(self) -> tuple[int, ...]:
        """Every UUID a search can match this record by: its class, the
        public browse root, and its protocols (L2CAP and the PSM)."""
        return (
            self.service_class,
            ServiceClass.PUBLIC_BROWSE_ROOT,
            ProtocolUuid.L2CAP,
            self.service.psm,
        )

    def matches_uuid(self, uuid: int) -> bool:
        """True when *uuid* appears in this record's class or protocols."""
        return uuid in self.uuids

    def attribute_list(self, attribute_ids: list[tuple[int, int]]) -> DataElement:
        """Build the (id, value) attribute list for the requested ranges."""
        children = []
        attributes = self.attributes()
        for low, high in attribute_ids:
            for attr_id in sorted(attributes):
                if low <= attr_id <= high:
                    children.append(uint(attr_id))
                    children.append(attributes[attr_id])
        return sequence(*children)


def build_records(directory: ServiceDirectory) -> tuple[SdpRecord, ...]:
    """Materialise SDP records for every advertised service."""
    records = []
    for index, service in enumerate(directory.all_records()):
        service_class = _SERVICE_CLASS_BY_PSM.get(
            service.psm, ServiceClass.SERIAL_PORT
        )
        records.append(
            SdpRecord(
                handle=FIRST_RECORD_HANDLE + index,
                service=service,
                service_class=service_class,
            )
        )
    return tuple(records)
