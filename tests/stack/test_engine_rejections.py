"""Tests for the engine's rejection semantics (the paper's reject rules)."""

from __future__ import annotations

import dataclasses

from repro.l2cap.constants import (
    CommandCode,
    InfoResult,
    InfoType,
    RejectReason,
)
from repro.l2cap.packets import (
    L2capPacket,
    echo_request,
    information_request,
)
from repro.stack.vendors import BLUEDROID, BLUEZ, IOS_STACK, WINDOWS_STACK

from tests.stack.engine_helpers import make_engine


class TestStructuralRejects:
    def test_unknown_code_rejected_not_understood(self):
        engine = make_engine()
        responses = engine.handle_l2cap(L2capPacket(code=0x7F))
        assert responses[0].code == CommandCode.COMMAND_REJECT
        assert responses[0].fields["reason"] == RejectReason.COMMAND_NOT_UNDERSTOOD

    def test_length_lie_rejected_not_understood(self):
        engine = make_engine()
        packet = echo_request(b"abcd")
        packet = packet.replace(declared_data_len=1)
        responses = engine.handle_l2cap(packet)
        assert responses[0].fields["reason"] == RejectReason.COMMAND_NOT_UNDERSTOOD

    def test_mtu_exceeded_rejected(self):
        personality = dataclasses.replace(BLUEDROID, signaling_mtu=48)
        engine = make_engine(personality)
        responses = engine.handle_l2cap(echo_request(b"x" * 100))
        assert responses[0].fields["reason"] == RejectReason.SIGNALING_MTU_EXCEEDED

    def test_reject_echoes_identifier(self):
        engine = make_engine()
        responses = engine.handle_l2cap(L2capPacket(code=0x7F, identifier=77))
        assert responses[0].identifier == 77

    def test_command_reject_is_terminal(self):
        engine = make_engine()
        responses = engine.handle_l2cap(
            L2capPacket(CommandCode.COMMAND_REJECT, 1, {"reason": 0})
        )
        assert responses == []


class TestGarbageTolerance:
    def test_permissive_stack_parses_garbage_tail(self):
        """BlueDroid parses the declared region and ignores the tail."""
        engine = make_engine(BLUEDROID)
        packet = echo_request(b"ping")
        packet = packet.replace(garbage=b"\xde\xad\xbe\xef")
        responses = engine.handle_l2cap(packet)
        assert responses[0].code == CommandCode.ECHO_RSP

    def test_hardened_stack_rejects_garbage_tail(self):
        """iOS/Windows-style exception handling (why D4/D6/D7 survive)."""
        for personality in (IOS_STACK, WINDOWS_STACK):
            engine = make_engine(personality)
            packet = echo_request(b"ping")
            packet = packet.replace(garbage=b"\xde\xad")
            responses = engine.handle_l2cap(packet)
            assert responses[0].code == CommandCode.COMMAND_REJECT


class TestConnectionScopedCommands:
    def test_echo_round_trip(self):
        engine = make_engine()
        responses = engine.handle_l2cap(echo_request(b"hello", identifier=9))
        assert responses[0].code == CommandCode.ECHO_RSP
        assert responses[0].identifier == 9
        assert responses[0].tail == b"hello"

    def test_information_request_known_types(self):
        engine = make_engine()
        for info_type in (1, 2, 3):
            responses = engine.handle_l2cap(information_request(info_type))
            rsp = responses[0]
            assert rsp.code == CommandCode.INFORMATION_RSP
            assert rsp.fields["result"] == InfoResult.SUCCESS
            assert rsp.tail  # carries the payload

    def test_information_request_unknown_type_not_supported(self):
        engine = make_engine()
        responses = engine.handle_l2cap(information_request(0x0099))
        assert responses[0].fields["result"] == InfoResult.NOT_SUPPORTED


class TestLeFamily:
    def test_br_edr_only_stack_rejects_le_commands(self):
        engine = make_engine(IOS_STACK)
        packet = L2capPacket(CommandCode.CONNECTION_PARAMETER_UPDATE_REQ, 1)
        responses = engine.handle_l2cap(packet)
        assert responses[0].code == CommandCode.COMMAND_REJECT

    def test_le_capable_stack_answers_param_update(self):
        engine = make_engine(BLUEDROID)
        packet = L2capPacket(CommandCode.CONNECTION_PARAMETER_UPDATE_REQ, 1)
        responses = engine.handle_l2cap(packet)
        assert responses[0].code == CommandCode.CONNECTION_PARAMETER_UPDATE_RSP

    def test_le_credit_connection_refused_on_br_edr_link(self):
        engine = make_engine(BLUEZ)
        packet = L2capPacket(CommandCode.LE_CREDIT_BASED_CONNECTION_REQ, 1)
        responses = engine.handle_l2cap(packet)
        assert responses[0].code == CommandCode.LE_CREDIT_BASED_CONNECTION_RSP
        assert responses[0].fields["result"] != 0

    def test_flow_control_credit_silently_dropped(self):
        engine = make_engine(BLUEDROID)
        packet = L2capPacket(CommandCode.FLOW_CONTROL_CREDIT_IND, 1)
        assert engine.handle_l2cap(packet) == []

    def test_data_frames_never_elicit_signaling(self):
        engine = make_engine()
        packet = L2capPacket(code=0, header_cid=0x0002, tail=b"blob")
        assert engine.handle_l2cap(packet) == []
