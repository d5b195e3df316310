"""Tests for VirtualDevice: identity, link glue, crash artefacts."""

from __future__ import annotations

import pytest

from repro.errors import ConnectionFailedError
from repro.hci.packets import AclPacket
from repro.l2cap.constants import CommandCode, Psm
from repro.l2cap.packets import (
    L2capPacket,
    configuration_request,
    connection_request,
    echo_request,
)
from repro.stack.device import DeviceMeta
from repro.stack.vulnerabilities import BLUEDROID_CIDP_NULL_DEREF

from tests.conftest import make_rig


class TestDeviceMeta:
    def test_oui_is_first_three_octets(self):
        meta = DeviceMeta("f8:0f:f9:00:00:02", "pixel", "smartphone")
        assert meta.oui == "F8:0F:F9"

    def test_malformed_mac_rejected(self):
        with pytest.raises(ValueError):
            DeviceMeta("not-a-mac", "x", "y")


class TestDiscovery:
    def test_inquiry_returns_meta(self):
        device, _, _ = make_rig()
        meta = device.inquiry()
        assert meta.name == "test-device"
        assert meta.device_class == "smartphone"

    def test_sdp_browse_lists_services(self):
        device, _, _ = make_rig()
        names = [record.name for record in device.services.all_records()]
        assert names == ["SDP", "RFCOMM", "AVDTP"]  # ascending PSM order


class TestLinkGlue:
    def _send(self, queue, packet):
        return queue.send(packet)

    def test_echo_through_full_stack(self):
        _, _, queue = make_rig()
        responses = self._send(queue, echo_request(b"ping", identifier=5))
        assert len(responses) == 1
        assert responses[0].code == CommandCode.ECHO_RSP
        assert responses[0].identifier == 5

    def test_undecodable_noise_is_dropped(self):
        device, link, _ = make_rig()
        assert device.handle_acl_frame(b"\x99\x00") == []

    def test_responses_are_acl_framed(self):
        device, _, _ = make_rig()
        frame = AclPacket(handle=0x0B, payload=echo_request(b"x").encode()).encode()
        responses = device.handle_acl_frame(frame)
        acl = AclPacket.decode(responses[0])
        assert acl.handle == 0x0B
        packet = L2capPacket.decode(acl.payload)
        assert packet.code == CommandCode.ECHO_RSP


class TestCrashLifecycle:
    def _crash_rig(self):
        device, link, queue = make_rig(
            vulnerabilities=(BLUEDROID_CIDP_NULL_DEREF,), armed=True
        )
        queue.send(connection_request(psm=Psm.SDP, scid=0x60))
        packet = configuration_request(dcid=0x0999)
        packet.garbage = b"\xff"
        return device, link, queue, packet

    def test_crash_records_tombstone(self):
        device, link, queue, trigger = self._crash_rig()
        with pytest.raises(ConnectionFailedError):
            queue.send(trigger)
        assert device.crash is not None
        assert not device.is_alive
        assert len(device.crash_dumps) == 1
        assert "null pointer dereference" in device.crash_dumps[0]

    def test_link_down_after_crash(self):
        device, link, queue, trigger = self._crash_rig()
        with pytest.raises(ConnectionFailedError):
            queue.send(trigger)
        with pytest.raises(ConnectionFailedError):
            queue.send(echo_request())

    def test_reset_restores_device_and_link(self):
        device, link, queue, trigger = self._crash_rig()
        with pytest.raises(ConnectionFailedError):
            queue.send(trigger)
        device.reset(link)
        assert device.is_alive
        assert device.reset_count == 1
        responses = queue.send(echo_request(b"back"))
        assert responses[0].code == CommandCode.ECHO_RSP

    def test_disarmed_device_survives_trigger(self):
        device, link, queue = make_rig(
            vulnerabilities=(BLUEDROID_CIDP_NULL_DEREF,), armed=False
        )
        queue.send(connection_request(psm=Psm.SDP, scid=0x60))
        packet = configuration_request(dcid=0x0999)
        packet.garbage = b"\xff"
        queue.send(packet)
        assert device.is_alive
