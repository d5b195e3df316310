"""Tests for connection handling in the host-stack engine."""

from __future__ import annotations

import dataclasses

from repro.l2cap.constants import CommandCode, ConnectionResult, Psm, RejectReason
from repro.l2cap.packets import connection_request, create_channel_request
from repro.l2cap.states import ChannelState
from repro.stack.vendors import BLUEDROID, BLUEZ, RTKIT

from tests.stack.engine_helpers import make_engine, open_channel


class TestConnectionRequest:
    def test_open_port_accepts(self):
        engine = make_engine()
        target_cid, responses = open_channel(engine)
        assert target_cid >= 0x0040
        block = engine.channels.get(target_cid)
        assert block.state is ChannelState.WAIT_CONFIG
        assert block.remote_cid == 0x0060

    def test_response_echoes_identifier_and_scid(self):
        engine = make_engine()
        responses = engine.handle_l2cap(
            connection_request(psm=Psm.SDP, scid=0x0070, identifier=42)
        )
        rsp = responses[0]
        assert rsp.identifier == 42
        assert rsp.fields["scid"] == 0x0070

    def test_unknown_psm_refused(self):
        engine = make_engine()
        responses = engine.handle_l2cap(connection_request(psm=0x1001, scid=0x60))
        assert responses[0].fields["result"] == ConnectionResult.REFUSED_PSM_NOT_SUPPORTED

    def test_invalid_psm_refused(self):
        engine = make_engine()
        responses = engine.handle_l2cap(connection_request(psm=0x0100, scid=0x60))
        assert responses[0].fields["result"] == ConnectionResult.REFUSED_PSM_NOT_SUPPORTED

    def test_pairing_required_port_refused_with_security_block(self):
        engine = make_engine()
        responses = engine.handle_l2cap(connection_request(psm=Psm.RFCOMM, scid=0x60))
        assert responses[0].fields["result"] == ConnectionResult.REFUSED_SECURITY_BLOCK

    def test_reserved_scid_refused(self):
        engine = make_engine()
        responses = engine.handle_l2cap(connection_request(psm=Psm.SDP, scid=0x0001))
        assert responses[0].fields["result"] == ConnectionResult.REFUSED_INVALID_SCID

    def test_duplicate_scid_refused(self):
        engine = make_engine()
        open_channel(engine, scid=0x0060)
        responses = engine.handle_l2cap(connection_request(psm=Psm.SDP, scid=0x0060))
        assert (
            responses[0].fields["result"]
            == ConnectionResult.REFUSED_SCID_ALREADY_ALLOCATED
        )

    def test_capacity_exhaustion_refused_no_resources(self):
        personality = dataclasses.replace(BLUEDROID, max_channels=2)
        engine = make_engine(personality)
        open_channel(engine, scid=0x0060)
        open_channel(engine, scid=0x0061)
        responses = engine.handle_l2cap(connection_request(psm=Psm.SDP, scid=0x0062))
        assert responses[0].fields["result"] == ConnectionResult.REFUSED_NO_RESOURCES

    def test_initiating_service_sends_its_config_req(self):
        engine = make_engine()
        target_cid, responses = open_channel(engine, psm=Psm.AVDTP)
        codes = [r.code for r in responses]
        assert codes == [CommandCode.CONNECTION_RSP, CommandCode.CONFIGURATION_REQ]
        config_req = responses[1]
        assert config_req.fields["dcid"] == 0x0060  # aimed at our CID
        block = engine.channels.get(target_cid)
        assert block.state is ChannelState.WAIT_CONFIG_REQ_RSP

    def test_wait_connect_posture_recorded(self):
        engine = make_engine()
        open_channel(engine)
        visited = {visit.state for visit in engine.state_history}
        assert ChannelState.WAIT_CONNECT in visited
        assert ChannelState.WAIT_CONFIG in visited


class TestCreateChannelRequest:
    def test_amp_stack_accepts(self):
        engine = make_engine(BLUEZ)
        responses = engine.handle_l2cap(
            create_channel_request(psm=Psm.SDP, scid=0x60, cont_id=0)
        )
        assert responses[0].code == CommandCode.CREATE_CHANNEL_RSP
        assert responses[0].fields["result"] == ConnectionResult.SUCCESS
        visited = {visit.state for visit in engine.state_history}
        assert ChannelState.WAIT_CREATE in visited

    def test_non_amp_stack_refuses(self):
        engine = make_engine(RTKIT)
        responses = engine.handle_l2cap(
            create_channel_request(psm=Psm.SDP, scid=0x60, cont_id=0)
        )
        assert (
            responses[0].fields["result"]
            == ConnectionResult.REFUSED_CONTROLLER_ID_NOT_SUPPORTED
        )

    def test_bogus_controller_id_refused(self):
        engine = make_engine(BLUEZ)
        responses = engine.handle_l2cap(
            create_channel_request(psm=Psm.SDP, scid=0x60, cont_id=9)
        )
        assert (
            responses[0].fields["result"]
            == ConnectionResult.REFUSED_CONTROLLER_ID_NOT_SUPPORTED
        )

    def test_unsolicited_connection_rsp_rejected_by_strict_stack(self):
        engine = make_engine(BLUEZ)
        from repro.l2cap.packets import L2capPacket

        responses = engine.handle_l2cap(
            L2capPacket(CommandCode.CONNECTION_RSP, 5, {"dcid": 1, "scid": 2})
        )
        assert responses[0].code == CommandCode.COMMAND_REJECT
        assert responses[0].fields["reason"] == RejectReason.COMMAND_NOT_UNDERSTOOD

    def test_unsolicited_connection_rsp_swallowed_by_bluedroid(self):
        """The Android quirk of paper §III.C."""
        engine = make_engine(BLUEDROID)
        from repro.l2cap.packets import L2capPacket

        responses = engine.handle_l2cap(
            L2capPacket(CommandCode.CONNECTION_RSP, 5, {"dcid": 1, "scid": 2})
        )
        assert responses == []
