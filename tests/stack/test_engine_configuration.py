"""Tests for the configuration sub-machine of the engine."""

from __future__ import annotations

from repro.l2cap.constants import (
    CommandCode,
    ConfigResult,
    Psm,
    RejectReason,
)
from repro.l2cap.packets import (
    configuration_request,
    configuration_response,
)
from repro.l2cap.states import ChannelState
from repro.stack.vendors import BLUEZ, RTKIT

from tests.stack.engine_helpers import make_engine, open_channel


class TestPassiveConfiguration:
    """SDP-style service: the target configures only after we do."""

    def test_our_config_req_triggers_rsp_and_their_req(self):
        engine = make_engine()
        target_cid, _ = open_channel(engine)
        responses = engine.handle_l2cap(
            configuration_request(dcid=target_cid, identifier=3)
        )
        codes = [r.code for r in responses]
        assert codes == [CommandCode.CONFIGURATION_RSP, CommandCode.CONFIGURATION_REQ]
        assert responses[0].identifier == 3
        assert responses[0].fields["result"] == ConfigResult.SUCCESS
        block = engine.channels.get(target_cid)
        assert block.state is ChannelState.WAIT_CONFIG_RSP
        visited = {visit.state for visit in engine.state_history}
        assert ChannelState.WAIT_SEND_CONFIG in visited

    def test_full_exchange_reaches_open(self):
        engine = make_engine()
        target_cid, _ = open_channel(engine)
        responses = engine.handle_l2cap(configuration_request(dcid=target_cid))
        their_req = responses[1]
        engine.handle_l2cap(
            configuration_response(scid=target_cid, identifier=their_req.identifier)
        )
        assert engine.channels.get(target_cid).state is ChannelState.OPEN

    def test_reconfiguration_from_open(self):
        engine = make_engine()
        target_cid = self._open(engine)
        responses = engine.handle_l2cap(configuration_request(dcid=target_cid))
        assert responses[0].code == CommandCode.CONFIGURATION_RSP
        block = engine.channels.get(target_cid)
        assert block.state in (
            ChannelState.WAIT_CONFIG_RSP,
            ChannelState.WAIT_CONFIG,
        )

    def _open(self, engine):
        target_cid, _ = open_channel(engine)
        responses = engine.handle_l2cap(configuration_request(dcid=target_cid))
        engine.handle_l2cap(
            configuration_response(
                scid=target_cid, identifier=responses[1].identifier
            )
        )
        assert engine.channels.get(target_cid).state is ChannelState.OPEN
        return target_cid


class TestInitiatingConfiguration:
    """AVDTP-style service: the target configures immediately."""

    def test_connect_parks_in_wait_config_req_rsp(self):
        engine = make_engine()
        target_cid, _ = open_channel(engine, psm=Psm.AVDTP)
        assert (
            engine.channels.get(target_cid).state
            is ChannelState.WAIT_CONFIG_REQ_RSP
        )

    def test_answering_their_req_parks_in_wait_config_req(self):
        engine = make_engine()
        target_cid, responses = open_channel(engine, psm=Psm.AVDTP)
        their_req = responses[1]
        engine.handle_l2cap(
            configuration_response(scid=target_cid, identifier=their_req.identifier)
        )
        assert engine.channels.get(target_cid).state is ChannelState.WAIT_CONFIG_REQ

    def test_pending_rsp_parks_in_wait_ind_final_rsp(self):
        engine = make_engine()
        target_cid, responses = open_channel(engine, psm=Psm.AVDTP)
        their_req = responses[1]
        engine.handle_l2cap(
            configuration_response(
                scid=target_cid,
                result=ConfigResult.PENDING,
                identifier=their_req.identifier,
            )
        )
        assert (
            engine.channels.get(target_cid).state is ChannelState.WAIT_IND_FINAL_RSP
        )

    def test_pending_unsupported_stack_ignores(self):
        engine = make_engine(RTKIT)
        # RTKit has no initiating service here; use passive flow.
        target_cid, _ = open_channel(engine)
        responses = engine.handle_l2cap(configuration_request(dcid=target_cid))
        their_req = responses[1]
        engine.handle_l2cap(
            configuration_response(
                scid=target_cid,
                result=ConfigResult.PENDING,
                identifier=their_req.identifier,
            )
        )
        state = engine.channels.get(target_cid).state
        assert state is not ChannelState.WAIT_IND_FINAL_RSP

    def test_rejected_rsp_makes_target_disconnect(self):
        engine = make_engine()
        target_cid, responses = open_channel(engine, psm=Psm.AVDTP)
        their_req = responses[1]
        out = engine.handle_l2cap(
            configuration_response(
                scid=target_cid,
                result=ConfigResult.REJECTED,
                identifier=their_req.identifier,
            )
        )
        assert [p.code for p in out] == [CommandCode.DISCONNECTION_REQ]
        assert engine.channels.get(target_cid).state is ChannelState.WAIT_DISCONNECT

    def test_rejected_rsp_without_disconnect_policy(self):
        engine = make_engine(RTKIT)
        target_cid, _ = open_channel(engine)
        responses = engine.handle_l2cap(configuration_request(dcid=target_cid))
        their_req = responses[1]
        out = engine.handle_l2cap(
            configuration_response(
                scid=target_cid,
                result=ConfigResult.REJECTED,
                identifier=their_req.identifier,
            )
        )
        assert out == []


class TestConfigRejections:
    def test_unknown_dcid_rejected_invalid_cid_by_strict_stack(self):
        engine = make_engine(BLUEZ)
        responses = engine.handle_l2cap(configuration_request(dcid=0x0999))
        assert responses[0].code == CommandCode.COMMAND_REJECT
        assert responses[0].fields["reason"] == RejectReason.INVALID_CID

    def test_unknown_dcid_accepted_by_bluedroid_quirk(self):
        """The quirk that exposes the D1/D2 bug path."""
        engine = make_engine()
        responses = engine.handle_l2cap(configuration_request(dcid=0x0999))
        assert responses[0].code == CommandCode.CONFIGURATION_RSP

    def test_unsolicited_config_rsp_rejected_by_strict_stack(self):
        engine = make_engine(BLUEZ)
        responses = engine.handle_l2cap(configuration_response(scid=0x0999))
        assert responses[0].code == CommandCode.COMMAND_REJECT
