"""Service records and the SDP-style service directory of a virtual device.

The paper's target-scanning phase asks the target for its supported
service ports and probes each for "does this port require pairing?",
falling back to SDP (PSM 0x0001) which never requires pairing. This
module is the directory those probes interrogate.
"""

from __future__ import annotations

import dataclasses

from repro.errors import ServiceError
from repro.l2cap.constants import Psm, is_valid_psm


@dataclasses.dataclass(frozen=True)
class ServiceRecord:
    """One L2CAP service exposed by a device.

    :param psm: the service port.
    :param name: human-readable service name (as SDP would report).
    :param requires_pairing: True when unpaired connection requests are
        refused with a security block — the ports the fuzzer must avoid.
    :param initiates_config: True when the service's channel starts its
        own Configuration Request immediately after accepting a
        connection (streaming services like AVDTP do; SDP does not).
        Varying this across services is what lets an external fuzzer
        observe both halves of the configuration sub-machine.
    """

    psm: int
    name: str
    requires_pairing: bool = False
    initiates_config: bool = False

    def __post_init__(self) -> None:
        if not is_valid_psm(self.psm):
            raise ServiceError(f"service PSM {self.psm:#06x} is not a valid PSM")


class ServiceDirectory:
    """The set of services a device advertises, keyed by PSM."""

    def __init__(self, records: list[ServiceRecord] | None = None) -> None:
        self._records: dict[int, ServiceRecord] = {}
        for record in records or ():
            self.register(record)

    def register(self, record: ServiceRecord) -> None:
        """Add a service.

        :raises ServiceError: if the PSM is already registered.
        """
        if record.psm in self._records:
            raise ServiceError(f"PSM {record.psm:#06x} already registered")
        self._records[record.psm] = record

    def override(self, record: ServiceRecord) -> None:
        """Replace (or add) the record at *record.psm*.

        Used by fuzz targets to lift a pairing gate the way a paired
        dongle would, or to mount an extra protocol server on a device.
        """
        self._records[record.psm] = record

    def lookup(self, psm: int) -> ServiceRecord | None:
        """Find the service at *psm* (None if not offered)."""
        return self._records.get(psm)

    def supports(self, psm: int) -> bool:
        """True when the device offers a service on *psm*."""
        return psm in self._records

    def all_records(self) -> tuple[ServiceRecord, ...]:
        """Every service, in ascending PSM order (an SDP browse result)."""
        return tuple(self._records[psm] for psm in sorted(self._records))

    def open_psms(self) -> tuple[int, ...]:
        """PSMs connectable without pairing."""
        return tuple(
            psm for psm in sorted(self._records) if not self._records[psm].requires_pairing
        )

    def __len__(self) -> int:
        return len(self._records)


def standard_services(
    *,
    pairing_free: tuple[int, ...] = (Psm.SDP,),
    extra: tuple[ServiceRecord, ...] = (),
) -> ServiceDirectory:
    """Build a typical phone-like service directory.

    Every Bluetooth device supports SDP without pairing (paper §III.B);
    the rest of the catalogue defaults to pairing-required, mirroring how
    consumer devices gate RFCOMM/A2DP behind the pairing ceremony.
    """
    catalogue = (
        ServiceRecord(Psm.SDP, "Service Discovery Protocol"),
        ServiceRecord(Psm.RFCOMM, "RFCOMM", requires_pairing=True),
        ServiceRecord(Psm.HID_CONTROL, "HID Control", requires_pairing=True),
        ServiceRecord(
            Psm.AVDTP, "Audio/Video Distribution", requires_pairing=True, initiates_config=True
        ),
        ServiceRecord(Psm.AVCTP, "Audio/Video Control", requires_pairing=True),
    )
    directory = ServiceDirectory()
    for record in catalogue:
        requires_pairing = record.psm not in pairing_free and record.requires_pairing
        directory.register(dataclasses.replace(record, requires_pairing=requires_pairing))
    for record in extra:
        directory.register(record)
    return directory
