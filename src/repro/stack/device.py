"""Virtual Bluetooth devices: the fuzzing targets.

A :class:`VirtualDevice` bundles the meta-information the paper's
target-scanning phase collects (MAC address, device name, class of
device, OUI), a vendor-flavoured :class:`~repro.stack.engine.HostStackEngine`,
and the link-endpoint glue that plugs into a
:class:`~repro.hci.transport.VirtualLink`. The endpoint takes traffic
two ways (see :mod:`repro.hci.transport`):

* :meth:`VirtualDevice.handle_packet` — the direct hop: a packet object
  in, the engine's response objects out (campaign and replayed traffic
  alike);
* :meth:`VirtualDevice.handle_acl_frame` — the bytes path: raw ACL
  frames (fragmented, lossy-link or not round-trip-safe traffic) are
  reassembled and parsed, and every response goes back as a raw ACL
  frame.

Crash handling: when the engine's injected bug fires, the device records
the :class:`~repro.stack.crash.CrashReport`, renders the crash-dump
artefact (tombstone / kernel oops) and re-raises so the link goes down
with the crash's transport error — which is all the fuzzer ever sees.
"""

from __future__ import annotations

import dataclasses
import re

from repro.errors import PacketDecodeError, TargetCrashedError
from repro.hci.fragmentation import Reassembler
from repro.hci.packets import AclPacket, encode_acl
from repro.hci.transport import SimClock, VirtualLink
from repro.l2cap.constants import Psm
from repro.l2cap.packets import L2capPacket
from repro.sdp.server import SdpServer
from repro.stack.crash import CrashReport
from repro.stack.engine import HostStackEngine, fork_handlers
from repro.stack.services import ServiceDirectory, standard_services
from repro.stack.vendors import VendorPersonality
from repro.stack.vulnerabilities import VulnerabilityModel

_MAC_PATTERN = re.compile(r"^([0-9A-Fa-f]{2}:){5}[0-9A-Fa-f]{2}$")


@dataclasses.dataclass(frozen=True)
class DeviceMeta:
    """Scan-visible identity of a device (paper §III.B).

    :param mac_address: Bluetooth device address.
    :param name: friendly device name.
    :param device_class: class-of-device string ("smartphone", ...).
    :param oui: Organizationally Unique Identifier (first three octets).
    """

    mac_address: str
    name: str
    device_class: str

    def __post_init__(self) -> None:
        if not _MAC_PATTERN.match(self.mac_address):
            raise ValueError(f"malformed MAC address {self.mac_address!r}")

    @property
    def oui(self) -> str:
        """The vendor prefix of the MAC address."""
        return self.mac_address[:8].upper()


class VirtualDevice:
    """One fuzz target: identity + host stack + link endpoint.

    :param meta: scan-visible identity.
    :param personality: vendor stack behaviour profile.
    :param services: advertised services; a standard phone-like catalogue
        when omitted.
    :param vulnerabilities: injected bug models.
    :param clock: campaign clock (shared with the link).
    :param armed: False disables bug triggering (ratio-measurement mode).
    :param build_fingerprint: identifier stamped into tombstones.
    """

    def __init__(
        self,
        meta: DeviceMeta,
        personality: VendorPersonality,
        services: ServiceDirectory | None = None,
        vulnerabilities: tuple[VulnerabilityModel, ...] = (),
        clock: SimClock | None = None,
        armed: bool = True,
        build_fingerprint: str = "generic/release-keys",
    ) -> None:
        self.meta = meta
        self.clock = clock if clock is not None else SimClock()
        self.services = services if services is not None else standard_services()
        self.sdp_server = self._build_sdp_server()
        data_handlers = (
            {Psm.SDP: self.sdp_server.handle_request}
            if self.sdp_server is not None
            else {}
        )
        self.engine = HostStackEngine(
            personality,
            self.services,
            clock=self.clock,
            vulnerabilities=vulnerabilities,
            armed=armed,
            data_handlers=data_handlers,
        )
        self.build_fingerprint = build_fingerprint
        self.crash_dumps: list[str] = []
        self.reset_count = 0
        self._reassembler = Reassembler()

    # -- identity / discovery ---------------------------------------------------

    @property
    def personality(self) -> VendorPersonality:
        """The vendor profile of this device's stack."""
        return self.engine.personality

    @property
    def crash(self) -> CrashReport | None:
        """The pending crash, if the device is currently down."""
        return self.engine.crash

    @property
    def is_alive(self) -> bool:
        """True while the Bluetooth service is running."""
        return self.engine.crash is None

    def inquiry(self) -> DeviceMeta:
        """Answer a discovery inquiry (MAC, name, class, OUI)."""
        return self.meta

    def _build_sdp_server(self):
        """Stand up the on-device SDP server when SDP is advertised."""
        if not self.services.supports(Psm.SDP):
            return None
        return SdpServer(self.services)

    # -- link glue -----------------------------------------------------------------

    def attach_to(self, link: VirtualLink) -> None:
        """Register this device as the remote endpoint of *link*, taking
        the direct hop as well as raw frames."""
        link.attach(self.handle_acl_frame, self.handle_packet)

    def handle_packet(self, packet: L2capPacket, handle: int) -> list:
        """Process one L2CAP packet object; return the responses.

        This is the direct hop's endpoint. Responses that are their own
        loopback view go back as packet objects; any other response is
        serialised to the raw ACL frame the bytes path would carry on
        *handle*, so the receiver parses what a conformant stack sees.

        :raises TargetCrashedError: when an injected bug fires (after the
            crash dump has been recorded on-device).
        """
        try:
            responses = self.engine.handle_l2cap(packet)
        except TargetCrashedError as crash_exc:
            self._record_crash(crash_exc.crash)
            raise
        for response in responses:
            if not (response._loopback or response.loopback_view() is not None):
                return [
                    item if item.loopback_view() is not None
                    else encode_acl(handle, item.encode())
                    for item in responses
                ]
        return responses

    def handle_acl_frame(self, frame: bytes) -> list[bytes]:
        """Process one raw ACL frame; return raw ACL responses (bytes path).

        Continuation fragments are recombined per connection handle; an
        incomplete frame produces no response yet, and undecodable bytes
        are dropped silently like radio noise.

        :raises TargetCrashedError: when an injected bug fires.
        """
        try:
            acl = AclPacket.decode(frame)
        except PacketDecodeError:
            return []
        payload = self._reassembler.feed(acl)
        if payload is None:
            return []  # waiting for more fragments
        try:
            packet = L2capPacket.decode(payload)
        except PacketDecodeError:
            return []
        return [
            response
            if response.__class__ is bytes
            else encode_acl(acl.handle, response.encode())
            for response in self.handle_packet(packet, acl.handle)
        ]

    def _record_crash(self, crash: CrashReport) -> None:
        # Upper-layer handlers (SDP/RFCOMM) raise crashes past the
        # engine's own bug hooks; make the engine agree it is down.
        if self.engine.crash is None:
            self.engine.crash = crash
        if crash.leaves_dump:
            dump = crash.render_dump(
                device_name=self.meta.name, build=self.build_fingerprint
            )
            self.crash_dumps.append(dump)

    # -- forking -------------------------------------------------------------------

    def fork(self, link: VirtualLink) -> tuple[VirtualDevice, VirtualLink]:
        """An independent copy of this device and of *link*, its attached link.

        The copy answers every later packet exactly as this device would,
        and sending to either leaves the other untouched. Mutable state
        is copied by each owner's own ``fork``: the stack engine (channel
        blocks, state history, transition tallies), the clock, the
        reassembler, the link (queue, counters, down state) and stateful
        upper-layer servers (RFCOMM mux, OBEX server). Frozen or
        stateless parts are shared: identity, personality, bug models,
        the service directory and the SDP server. The forked link is
        attached the way *link* was (direct hop or bytes only).
        """
        clone = VirtualDevice.__new__(VirtualDevice)
        clone.__dict__.update(self.__dict__)
        clone.clock = self.clock.fork()
        forks: dict[int, object] = {}
        clone.engine = self.engine.fork(
            clone.clock, fork_handlers(self.engine.data_handlers, forks)
        )
        for name, value in self.__dict__.items():
            forked = forks.get(id(value))
            if forked is not None:
                setattr(clone, name, forked)  # e.g. rfcomm_mux, obex_server
        clone.crash_dumps = list(self.crash_dumps)
        clone._reassembler = self._reassembler.fork()
        forked_link = link.fork(clone.clock)
        forked_link.attach(
            clone.handle_acl_frame,
            clone.handle_packet if link.packet_remote is not None else None,
        )
        return clone, forked_link

    # -- lifecycle -------------------------------------------------------------------

    def reset(self, link: VirtualLink | None = None) -> None:
        """Manually reset the device after a crash (paper §V limitation 1:
        "the tester must manually reset the device"). Restores the stack
        and, when given, the link.
        """
        self.engine.reset()
        self.reset_count += 1
        if link is not None:
            link.restore()
