"""Tests for move and disconnection flows, plus crash triggering."""

from __future__ import annotations

import pytest

from repro.errors import TargetCrashedError
from repro.l2cap.constants import CommandCode, MoveResult, Psm, RejectReason
from repro.l2cap.packets import (
    L2capPacket,
    configuration_request,
    configuration_response,
    disconnection_request,
    move_channel_request,
)
from repro.l2cap.states import ChannelState
from repro.stack.vendors import RTKIT
from repro.stack.vulnerabilities import BLUEDROID_CIDP_NULL_DEREF

from tests.stack.engine_helpers import make_engine, open_channel


def _open(engine, psm=Psm.SDP, scid=0x0060):
    target_cid, _ = open_channel(engine, psm=psm, scid=scid)
    responses = engine.handle_l2cap(configuration_request(dcid=target_cid))
    their_req = next(
        r for r in responses if r.code == CommandCode.CONFIGURATION_REQ
    )
    engine.handle_l2cap(
        configuration_response(scid=target_cid, identifier=their_req.identifier)
    )
    assert engine.channels.get(target_cid).state is ChannelState.OPEN
    return target_cid


class TestMoveFlow:
    def test_move_from_open_succeeds(self):
        engine = make_engine()
        target_cid = _open(engine)
        responses = engine.handle_l2cap(move_channel_request(icid=target_cid))
        assert responses[0].code == CommandCode.MOVE_CHANNEL_RSP
        assert responses[0].fields["result"] == MoveResult.SUCCESS
        block = engine.channels.get(target_cid)
        assert block.state is ChannelState.WAIT_MOVE_CONFIRM
        assert ChannelState.WAIT_MOVE in {visit.state for visit in engine.state_history}

    def test_move_confirmation_completes(self):
        engine = make_engine()
        target_cid = _open(engine)
        engine.handle_l2cap(move_channel_request(icid=target_cid))
        responses = engine.handle_l2cap(
            L2capPacket(
                CommandCode.MOVE_CHANNEL_CONFIRMATION_REQ,
                2,
                {"icid": target_cid, "result": 0},
            )
        )
        assert responses[0].code == CommandCode.MOVE_CHANNEL_CONFIRMATION_RSP
        assert engine.channels.get(target_cid).state is ChannelState.OPEN

    def test_move_refused_without_amp(self):
        engine = make_engine(RTKIT)
        target_cid = _open(engine)
        responses = engine.handle_l2cap(move_channel_request(icid=target_cid))
        assert responses[0].fields["result"] == MoveResult.REFUSED_NOT_ALLOWED

    def test_move_unknown_icid_rejected(self):
        engine = make_engine()
        responses = engine.handle_l2cap(move_channel_request(icid=0x0999))
        assert responses[0].code == CommandCode.COMMAND_REJECT
        assert responses[0].fields["reason"] == RejectReason.INVALID_CID

    def test_move_before_open_refused_collision(self):
        engine = make_engine()
        target_cid, _ = open_channel(engine)
        responses = engine.handle_l2cap(move_channel_request(icid=target_cid))
        assert responses[0].fields["result"] == MoveResult.REFUSED_COLLISION


class TestDisconnection:
    def test_valid_disconnect_releases_channel(self):
        engine = make_engine()
        target_cid = _open(engine)
        responses = engine.handle_l2cap(
            disconnection_request(dcid=target_cid, scid=0x0060)
        )
        assert responses[0].code == CommandCode.DISCONNECTION_RSP
        assert engine.channels.get(target_cid) is None

    def test_disconnect_unknown_cid_rejected(self):
        engine = make_engine()
        responses = engine.handle_l2cap(
            disconnection_request(dcid=0x0999, scid=0x0888)
        )
        assert responses[0].fields["reason"] == RejectReason.INVALID_CID

    def test_disconnect_mismatched_scid_rejected(self):
        engine = make_engine()
        target_cid = _open(engine)
        responses = engine.handle_l2cap(
            disconnection_request(dcid=target_cid, scid=0x7777)
        )
        assert responses[0].code == CommandCode.COMMAND_REJECT

    def test_unsolicited_disconnection_rsp_swallowed_by_bluedroid(self):
        engine = make_engine()
        responses = engine.handle_l2cap(
            L2capPacket(CommandCode.DISCONNECTION_RSP, 1, {"dcid": 1, "scid": 2})
        )
        assert responses == []


class TestCrashTriggering:
    def _armed_engine(self, armed=True):
        return make_engine(
            vulnerabilities=(BLUEDROID_CIDP_NULL_DEREF,), armed=armed
        )

    def _trigger(self, engine):
        """Mutated config req while a channel is mid-configuration."""
        open_channel(engine)  # park a channel in WAIT_CONFIG
        packet = configuration_request(dcid=0x0999)
        packet = packet.replace(garbage=b"\xd2\x3a\x91\x0e")
        return engine.handle_l2cap(packet)

    def test_armed_engine_crashes(self):
        engine = self._armed_engine()
        with pytest.raises(TargetCrashedError) as excinfo:
            self._trigger(engine)
        assert excinfo.value.crash.vulnerability_id == "bluedroid-cidp-null-deref"
        assert engine.crash is not None

    def test_disarmed_engine_survives(self):
        engine = self._armed_engine(armed=False)
        responses = self._trigger(engine)
        assert responses  # answered normally
        assert engine.crash is None

    def test_crashed_engine_goes_silent(self):
        engine = self._armed_engine()
        with pytest.raises(TargetCrashedError):
            self._trigger(engine)
        from repro.l2cap.packets import echo_request

        assert engine.handle_l2cap(echo_request()) == []

    def test_reset_restores_service(self):
        engine = self._armed_engine()
        with pytest.raises(TargetCrashedError):
            self._trigger(engine)
        engine.reset()
        assert engine.crash is None
        assert len(engine.channels) == 0
