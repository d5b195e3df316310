"""The packet queue between the fuzzer and the target (paper Fig. 5).

Both normal packets (state transition) and malformed packets (fuzz tests)
flow through :class:`PacketQueue`, which pushes them down the virtual
link, returns the target's responses, and feeds everything to the
sniffer so the evaluation metrics can be computed from the same trace a
Wireshark capture would give. A packet crosses the link (see
:mod:`repro.hci.transport`) by

* the **direct hop**, as the packet object itself, when it is its own
  loopback view, the queue does not fragment (``acl_mtu`` 0), the link
  is loss-free and the remote attached a packet handler. The responses
  come straight back as packet objects, unqueued;
* the **bytes path** otherwise: one HCI ACL frame, or continuation
  fragments past ``acl_mtu``. Lossy links, bytes-only remotes and
  packets that would not survive a decode round trip (length lies,
  unknown codes, missing fields) take it. Responses queue as raw frames
  for :meth:`~PacketQueue.drain`, as does a direct-hop answer holding one.
"""

from __future__ import annotations

import struct

from repro.analysis.sniffer import PacketSniffer
from repro.errors import PacketDecodeError, PacketEncodeError
from repro.hci.fragmentation import Reassembler, fragment
from repro.hci.packets import (
    HCI_ACL_DATA_PKT,
    MAX_CONNECTION_HANDLE,
    PB_FIRST_FLUSHABLE,
    AclPacket,
)
from repro.hci.transport import VirtualLink
from repro.l2cap.packets import L2capPacket

#: Single-field length pack for the per-send ACL header fast path.
_PACK_U16 = struct.Struct("<H").pack

#: Two laps of the identifier space (1..255): up to 255 identifiers
#: taken from any cursor are one slice.
_IDENTIFIER_LAPS = [k % 0xFF + 1 for k in range(2 * 0xFF)]


class PacketQueue:
    """Tx/Rx pump with trace capture.

    :param link: the virtual link to the target.
    :param sniffer: trace collector (a fresh one is created if omitted).
    :param handle: ACL connection handle used for all frames.
    :param acl_mtu: controller buffer size; L2CAP frames larger than this
        are fragmented into continuation ACL packets (0 = no
        fragmentation, the default fast path).
    """

    def __init__(
        self,
        link: VirtualLink,
        sniffer: PacketSniffer | None = None,
        handle: int = 0x000B,
        acl_mtu: int = 0,
    ) -> None:
        self.link = link
        self.sniffer = sniffer if sniffer is not None else PacketSniffer()
        self.handle = handle
        self.acl_mtu = acl_mtu
        #: The campaign's simulated clock (the link's; cached here because
        #: the send/drain path reads it per packet).
        self.clock = link.clock
        self._next_identifier = 0
        self._reassembler = Reassembler()
        # Per-send ACL framing without the encode_acl call: the handle
        # and flags never change, so the first three header bytes are a
        # constant prefix (byte-identical to encode_acl's output, which
        # the packet-queue tests pin). Validate the handle once here —
        # encode_acl used to reject it on the first send.
        if not 0 <= handle <= MAX_CONNECTION_HANDLE:
            raise PacketEncodeError(
                f"connection handle {handle:#x} out of range"
            )
        self._acl_prefix = struct.pack(
            "<BH",
            HCI_ACL_DATA_PKT,
            handle | (PB_FIRST_FLUSHABLE << 12),
        )

    def take_identifier(self) -> int:
        """Allocate the next request identifier (1..255, wrapping)."""
        self._next_identifier = self._next_identifier % 0xFF + 1
        return self._next_identifier

    def take_identifiers(self, count: int) -> list[int]:
        """Allocate the next *count* (>= 1) identifiers at once, in order."""
        if count > 0xFF:
            return [self.take_identifier() for _ in range(count)]
        start = self._next_identifier
        identifiers = _IDENTIFIER_LAPS[start : start + count]
        self._next_identifier = identifiers[-1]
        return identifiers

    def rewind_identifiers(self, last: int) -> None:
        """Make *last* the latest identifier allocated again."""
        self._next_identifier = last

    def send(self, packet: L2capPacket) -> list[L2capPacket]:
        """Transmit one L2CAP packet and return the target's responses.

        The packet is recorded in the trace *before* transmission so a
        send that kills the target still counts as transmitted. The
        responses are recorded at the simulated time the send ended.

        :raises TransportError: when the link is (or goes) down.
        """
        self.sniffer.observe_sent(packet, self.clock.now)
        link = self.link
        if (
            (packet._loopback or packet.loopback_view() is not None)
            and not self.acl_mtu
            and not link.loss_rate
            and link.packet_remote is not None
        ):
            responses = link.deliver(packet, self.handle)
            if responses:
                for response in responses:
                    if response.__class__ is not L2capPacket:
                        # Drain the whole answer, keeping its order.
                        link.inbound.extend(responses)
                        return self.drain()
                observe = self.sniffer.observe_received
                now = self.clock.now
                for response in responses:
                    observe(response, now)
            return responses
        payload = packet.encode()
        if self.acl_mtu and len(payload) > self.acl_mtu:
            for fragment_pkt in fragment(payload, self.handle, self.acl_mtu):
                link.send_frame(fragment_pkt.encode())
        else:
            link.send_frame(self._acl_prefix + _PACK_U16(len(payload)) + payload)
        return self.drain() if link.inbound else []

    def drain(self) -> list[L2capPacket]:
        """Collect and trace every response queued on the link.

        Raw ACL frames are reassembled and parsed (undecodable ones are
        dropped); packet objects queued beside them are traced as is.
        """
        inbound = self.link.inbound
        if not inbound:
            return []
        responses: list[L2capPacket] = []
        observe = self.sniffer.observe_received
        now = self.clock.now
        while inbound:
            packet = inbound.popleft()
            if packet.__class__ is not L2capPacket:
                try:
                    payload = self._reassembler.feed(AclPacket.decode(packet))
                    if payload is None:
                        continue  # waiting for more fragments
                    packet = L2capPacket.decode(payload)
                except PacketDecodeError:
                    continue
            observe(packet, now)
            responses.append(packet)
        return responses
