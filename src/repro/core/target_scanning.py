"""Phase 1 — target scanning (paper §III.B).

Collects the target's meta-information (MAC, name, class, OUI), browses
its advertised services, and probes every service port with a live
connection attempt to find **potentially exploitable ports**: ports that
accept an L2CAP connection without pairing. If every advertised port
demands pairing, the scanner falls back to the SDP port, "which does not
require pairing and is supported by every Bluetooth device".
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Sequence

from repro.errors import ScanError, TransportError
from repro.l2cap.constants import ConnectionResult, Psm
from repro.l2cap.packets import (
    CommandCode,
    connection_request,
    disconnection_request,
)
from repro.core.packet_queue import PacketQueue
from repro.sdp.client import SdpClient


@dataclasses.dataclass(frozen=True)
class PortProbe:
    """Outcome of probing one service port."""

    psm: int
    name: str
    connectable: bool
    requires_pairing: bool


@dataclasses.dataclass(frozen=True)
class ScanResult:
    """Everything phase 1 learned about the target.

    :param meta: device identity (MAC, name, class, OUI).
    :param probes: per-port probe outcomes.
    :param open_psms: ports connectable without pairing, in probe order.
    """

    meta: object
    probes: tuple[PortProbe, ...]
    open_psms: tuple[int, ...]

    @property
    def primary_psm(self) -> int:
        """The port the fuzzer will use first."""
        if not self.open_psms:
            raise ScanError("no pairing-free port found, not even SDP")
        return self.open_psms[0]


class TargetScanner:
    """Phase 1 runner.

    :param queue: packet queue to the target.
    :param inquiry: callable returning the device meta (the discovery
        inquiry of a real dongle).
    :param browse: callable returning the advertised service records.
        None (the default) performs the real over-the-air SDP browse —
        connect to PSM 0x0001 and issue a ServiceSearchAttributeRequest
        — through :class:`repro.sdp.client.SdpClient`.
    """

    def __init__(
        self,
        queue: PacketQueue,
        inquiry: Callable[[], object],
        browse: Callable[[], Sequence] | None = None,
    ) -> None:
        self.queue = queue
        self.inquiry = inquiry
        # None, not a bound ``self._browse_over_air``: that would make
        # the scanner reference itself.
        self.browse = browse

    def _browse_over_air(self) -> Sequence:
        return SdpClient(self.queue).browse()

    def scan(self, our_base_cid: int = 0x0040) -> ScanResult:
        """Run the scanning phase.

        Probes each advertised port with a Connection Request and tears
        down any accepted channel immediately, so the target is back in a
        clean state when state guiding begins.

        :raises ScanError: if the device is unreachable.
        :raises TransportError: if the target dies during scanning.
        """
        try:
            meta = self.inquiry()
        except TransportError:
            raise
        except Exception as exc:  # a dead/undiscoverable device
            raise ScanError(f"target inquiry failed: {exc}") from exc

        try:
            browse = self.browse
            records = list(browse() if browse is not None else self._browse_over_air())
        except ScanError:
            # Browse failed (e.g. no SDP data channel): fall through to
            # the blind SDP probe below.
            records = []
        probes: list[PortProbe] = []
        open_psms: list[int] = []
        next_cid = our_base_cid
        for record in records:
            probe, next_cid = self._probe_port(record, next_cid)
            probes.append(probe)
            if probe.connectable and not probe.requires_pairing:
                open_psms.append(probe.psm)

        if not open_psms:
            # Fall back to SDP, supported without pairing by every device.
            fallback = self._probe_psm(Psm.SDP, "Service Discovery Protocol", next_cid)
            probe, next_cid = fallback
            probes.append(probe)
            if probe.connectable and not probe.requires_pairing:
                open_psms.append(probe.psm)

        return ScanResult(meta=meta, probes=tuple(probes), open_psms=tuple(open_psms))

    def _probe_port(self, record, next_cid: int) -> tuple[PortProbe, int]:
        return self._probe_psm(record.psm, record.name, next_cid)

    def _probe_psm(self, psm: int, name: str, next_cid: int) -> tuple[PortProbe, int]:
        identifier = self.queue.take_identifier()
        responses = self.queue.exchange(
            connection_request(psm=psm, scid=next_cid, identifier=identifier)
        )
        next_cid += 1
        connectable = False
        requires_pairing = False
        for response in responses:
            if response.code != CommandCode.CONNECTION_RSP:
                continue
            result = response.fields.get("result")
            if result == ConnectionResult.SUCCESS:
                connectable = True
                self._teardown(response)
            elif result == ConnectionResult.REFUSED_SECURITY_BLOCK:
                requires_pairing = True
        return PortProbe(psm, name, connectable, requires_pairing), next_cid

    def _teardown(self, connection_rsp) -> None:
        """Politely close a probe channel so the scan leaves no residue."""
        dcid = connection_rsp.fields.get("dcid", 0)
        scid = connection_rsp.fields.get("scid", 0)
        if dcid:
            self.queue.exchange(
                disconnection_request(
                    dcid=dcid, scid=scid, identifier=self.queue.take_identifier()
                )
            )
