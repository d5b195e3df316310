"""Tests for the packet sniffer (Wireshark substitute)."""

from __future__ import annotations

from repro.analysis.sniffer import Direction, PacketSniffer, is_rejection
from repro.l2cap.constants import (
    CommandCode,
    ConfigResult,
    ConnectionResult,
    InfoResult,
    RejectReason,
)
from repro.l2cap.packets import (
    L2capPacket,
    command_reject,
    configuration_request,
    connection_request,
    disconnection_request,
    echo_request,
)


class TestRejectionClassification:
    def test_command_reject_is_rejection(self):
        assert is_rejection(command_reject(RejectReason.INVALID_CID, 1))

    def test_refused_connection_is_rejection(self):
        rsp = L2capPacket(
            CommandCode.CONNECTION_RSP,
            1,
            {
                "dcid": 0,
                "scid": 0x60,
                "result": ConnectionResult.REFUSED_PSM_NOT_SUPPORTED,
            },
        )
        assert is_rejection(rsp)

    def test_successful_connection_is_not(self):
        rsp = L2capPacket(
            CommandCode.CONNECTION_RSP,
            1,
            {"dcid": 0x40, "scid": 0x60, "result": ConnectionResult.SUCCESS},
        )
        assert not is_rejection(rsp)

    def test_pending_connection_is_not(self):
        rsp = L2capPacket(
            CommandCode.CONNECTION_RSP,
            1,
            {"dcid": 0, "scid": 0x60, "result": ConnectionResult.PENDING},
        )
        assert not is_rejection(rsp)

    def test_rejected_config_rsp_is_rejection(self):
        rsp = L2capPacket(
            CommandCode.CONFIGURATION_RSP,
            1,
            {"scid": 0x40, "flags": 0, "result": ConfigResult.REJECTED},
        )
        assert is_rejection(rsp)

    def test_not_supported_info_rsp_is_rejection(self):
        rsp = L2capPacket(
            CommandCode.INFORMATION_RSP,
            1,
            {"info_type": 9, "result": InfoResult.NOT_SUPPORTED},
        )
        assert is_rejection(rsp)

    def test_echo_rsp_is_not_rejection(self):
        assert not is_rejection(L2capPacket(CommandCode.ECHO_RSP, 1))

    def test_refused_le_connection_is_rejection(self):
        rsp = L2capPacket(
            CommandCode.LE_CREDIT_BASED_CONNECTION_RSP,
            1,
            {"dcid": 0, "mtu": 0, "mps": 0, "credit": 0, "result": 2},
        )
        assert is_rejection(rsp)


class TestTraceCounters:
    def test_counts_both_directions(self):
        sniffer = PacketSniffer()
        sniffer.observe_sent(echo_request(), 0.0)
        sniffer.observe_received(L2capPacket(CommandCode.ECHO_RSP, 1), 0.1)
        assert sniffer.transmitted_count() == 1
        assert sniffer.received_count() == 1
        assert len(sniffer.sent()) == 1
        assert len(sniffer.received()) == 1

    def test_malformed_counted(self):
        sniffer = PacketSniffer()
        packet = echo_request()
        packet = packet.replace(garbage=b"\x00")
        sniffer.observe_sent(packet, 0.0)
        sniffer.observe_sent(echo_request(), 0.1)
        assert sniffer.malformed_count() == 1

    def test_rejections_counted(self):
        sniffer = PacketSniffer()
        sniffer.observe_received(command_reject(0, 1), 0.0)
        sniffer.observe_received(L2capPacket(CommandCode.ECHO_RSP, 1), 0.1)
        assert sniffer.rejection_count() == 1

    def test_clear_resets_everything(self):
        sniffer = PacketSniffer()
        sniffer.observe_sent(echo_request(), 0.0)
        sniffer.clear()
        assert sniffer.transmitted_count() == 0
        assert not sniffer.trace


class TestDynamicAllocationTracking:
    """The sniffer learns target CIDs from the wire, like an analyst."""

    def test_config_to_known_cid_is_clean(self):
        sniffer = PacketSniffer()
        sniffer.observe_received(
            L2capPacket(
                CommandCode.CONNECTION_RSP,
                1,
                {"dcid": 0x0040, "scid": 0x60, "result": ConnectionResult.SUCCESS},
            ),
            0.0,
        )
        entry = sniffer.observe_sent(configuration_request(dcid=0x0040), 0.1)
        assert not entry.malformed

    def test_config_to_unknown_cid_is_malformed(self):
        sniffer = PacketSniffer()
        entry = sniffer.observe_sent(configuration_request(dcid=0x0999), 0.0)
        assert entry.malformed

    def test_disconnection_forgets_cid(self):
        sniffer = PacketSniffer()
        sniffer.observe_received(
            L2capPacket(
                CommandCode.CONNECTION_RSP,
                1,
                {"dcid": 0x0040, "scid": 0x60, "result": ConnectionResult.SUCCESS},
            ),
            0.0,
        )
        sniffer.observe_received(
            L2capPacket(
                CommandCode.DISCONNECTION_RSP, 2, {"dcid": 0x0040, "scid": 0x60}
            ),
            0.1,
        )
        entry = sniffer.observe_sent(disconnection_request(dcid=0x0040, scid=0x60), 0.2)
        assert entry.malformed  # the CID is stale now

    def test_failed_send_still_traced(self):
        sniffer = PacketSniffer()
        sniffer.observe_sent(connection_request(psm=0x0300, scid=0x60), 0.0)
        assert sniffer.transmitted_count() == 1
        assert sniffer.trace[0].direction is Direction.SENT
