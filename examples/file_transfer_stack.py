#!/usr/bin/env python3
"""The paper's §II.A motivating scenario: file transfer over the stack.

"Suppose we intend to use a Bluetooth file transfer service. ... they
share service ports and channels through the L2CAP layer. Based on these
ports and channels, they create RFCOMM and OBEX connections to use file
transfer applications."

This example runs that exact vertical on the virtual stack: SDP browse →
L2CAP channel → RFCOMM multiplexer → OBEX object push — and then shows
why L2CAP is the root of trust: killing L2CAP (the zero-day from §IV.E)
takes every upper layer down with it.

Run with::

    python examples/file_transfer_stack.py
"""

from __future__ import annotations

from repro.core.packet_queue import PacketQueue
from repro.errors import TransportError
from repro.hci.transport import VirtualLink
from repro.l2cap.constants import CommandCode, ConnectionResult, Psm
from repro.l2cap.packets import L2capPacket, configuration_request, connection_request
from repro.obex import ObexPacket, ObexServer, ResponseCode, connect_request, put_request
from repro.rfcomm import RfcommFrame, RfcommMux, sabm, uih
from repro.sdp.client import SdpClient
from repro.stack.device import DeviceMeta, VirtualDevice
from repro.stack.services import ServiceDirectory, ServiceRecord
from repro.stack.vendors import BLUEDROID
from repro.stack.vulnerabilities import BLUEDROID_CIDP_NULL_DEREF


def build_laptop():
    """A laptop offering OBEX object push on RFCOMM DLCI 3."""
    obex = ObexServer()
    mux = RfcommMux(server_channels=(1,), service_handlers={3: obex.handle_request})
    services = ServiceDirectory(
        [
            ServiceRecord(Psm.SDP, "SDP"),
            ServiceRecord(Psm.RFCOMM, "OBEX Object Push"),
        ]
    )
    device = VirtualDevice(
        meta=DeviceMeta("A0:51:0B:00:00:99", "office-laptop", "laptop"),
        personality=BLUEDROID,
        services=services,
        vulnerabilities=(BLUEDROID_CIDP_NULL_DEREF,),
    )
    device.engine.data_handlers[Psm.RFCOMM] = mux.handle_payload
    link = VirtualLink(clock=device.clock)
    device.attach_to(link)
    return device, obex, PacketQueue(link)


def rfcomm_call(queue, target_cid, our_cid, frame):
    packet = L2capPacket(
        code=0, identifier=0, header_cid=target_cid,
        tail=frame.encode(), fill_defaults=False,
    )
    for response in queue.send(packet):
        if response.header_cid == our_cid:
            return RfcommFrame.decode(response.tail)
    return None


def main() -> None:
    device, obex, queue = build_laptop()

    print("1. SDP: browse the target's services over the air")
    for service in SdpClient(queue).browse():
        print(f"   PSM 0x{service.psm:04X}  {service.name}")

    print("2. L2CAP: open a channel to the RFCOMM port")
    responses = queue.send(connection_request(psm=Psm.RFCOMM, scid=0x00A0))
    rsp = next(r for r in responses if r.code == CommandCode.CONNECTION_RSP)
    assert rsp.fields["result"] == ConnectionResult.SUCCESS
    target_cid = rsp.fields["dcid"]
    print(f"   channel up: 0x00A0 <-> 0x{target_cid:04X}")

    print("3. RFCOMM: bring up the multiplexer and a data DLCI")
    rfcomm_call(queue, target_cid, 0x00A0, sabm(0))
    rfcomm_call(queue, target_cid, 0x00A0, sabm(3))
    print("   DLCI 0 (control) and DLCI 3 (data) connected")

    print("4. OBEX: connect and push a file")
    reply = rfcomm_call(queue, target_cid, 0x00A0, uih(3, connect_request().encode()))
    assert ObexPacket.decode(reply.payload, has_connect_extras=True).code == ResponseCode.SUCCESS
    reply = rfcomm_call(
        queue, target_cid, 0x00A0,
        uih(3, put_request("quarterly-report.pdf", b"%PDF-1.4 ...").encode()),
    )
    assert ObexPacket.decode(reply.payload).code == ResponseCode.SUCCESS
    print(f"   file delivered: {list(obex.inbox)} ({len(obex.inbox['quarterly-report.pdf'])} bytes)")

    print("\n5. Root of trust: now kill the L2CAP layer underneath it all")
    attack = configuration_request(dcid=0xBEEF, identifier=99)
    attack.garbage = bytes.fromhex("D23A910E")
    try:
        queue.send(attack)
        print("   target survived (unexpected)")
    except TransportError as error:
        print(f"   {error.message}: Bluetooth is down — RFCOMM and OBEX died with it")
    print(f"   device alive: {device.is_alive}")


if __name__ == "__main__":
    main()
