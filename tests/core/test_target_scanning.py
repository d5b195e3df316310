"""Tests for phase 1 — target scanning."""

from __future__ import annotations

import pytest

from repro.core.target_scanning import TargetScanner
from repro.errors import ScanError
from repro.l2cap.constants import Psm
from repro.stack.services import ServiceDirectory, ServiceRecord

from tests.conftest import make_rig, make_services


def _scanner(device, queue):
    return TargetScanner(queue, device.inquiry, device.services.all_records)


class TestScan:
    def test_finds_open_ports(self):
        device, _, queue = make_rig()
        result = _scanner(device, queue).scan()
        assert Psm.SDP in result.open_psms
        assert Psm.AVDTP in result.open_psms
        assert result.primary_psm == Psm.SDP

    def test_detects_pairing_required(self):
        device, _, queue = make_rig()
        result = _scanner(device, queue).scan()
        rfcomm = next(p for p in result.probes if p.psm == Psm.RFCOMM)
        assert rfcomm.requires_pairing
        assert not rfcomm.connectable

    def test_meta_collected(self):
        device, _, queue = make_rig()
        result = _scanner(device, queue).scan()
        assert result.meta.name == "test-device"
        assert result.meta.oui == "AA:BB:CC"

    def test_sdp_fallback_when_all_ports_paired(self):
        """Paper §III.B: fall back to SDP, which never requires pairing."""
        services = ServiceDirectory(
            [
                ServiceRecord(Psm.SDP, "SDP"),
                ServiceRecord(Psm.RFCOMM, "RFCOMM", requires_pairing=True),
            ]
        )
        # Build a device whose browse list hides SDP (worst case).
        device, _, queue = make_rig(services=services)
        scanner = TargetScanner(
            queue,
            device.inquiry,
            lambda: [r for r in device.services.all_records() if r.psm != Psm.SDP],
        )
        result = scanner.scan()
        assert result.open_psms == (Psm.SDP,)

    def test_no_open_port_raises_on_primary_access(self):
        services = make_services(open_passive=False, open_initiating=False)
        device, _, queue = make_rig(services=services)
        # Device has no SDP either, so even the fallback fails.
        result = _scanner(device, queue).scan()
        assert result.open_psms == ()
        with pytest.raises(ScanError):
            _ = result.primary_psm

    def test_probe_channels_are_torn_down(self):
        device, _, queue = make_rig()
        _scanner(device, queue).scan()
        assert len(device.engine.channels) == 0

    def test_unreachable_device_raises_scan_error(self):
        device, _, queue = make_rig()

        def broken_inquiry():
            raise RuntimeError("no device in range")

        scanner = TargetScanner(queue, broken_inquiry, device.services.all_records)
        with pytest.raises(ScanError):
            scanner.scan()
