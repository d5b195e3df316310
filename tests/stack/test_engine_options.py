"""Tests for configuration-option negotiation in the engine."""

from __future__ import annotations

from repro.l2cap.constants import (
    CommandCode,
    ConfigOptionType,
    ConfigResult,
    MIN_SIGNALING_MTU,
)
from repro.l2cap.packets import (
    ConfigOption,
    configuration_request,
    encode_options,
    mtu_option,
)
from repro.l2cap.states import ChannelState

from tests.stack.engine_helpers import make_engine, open_channel


def _config_with_options(target_cid, options_bytes):
    packet = configuration_request(dcid=target_cid, identifier=7, options=[])
    packet = packet.replace(tail=options_bytes)
    return packet


def _first_rsp_result(responses):
    rsp = next(r for r in responses if r.code == CommandCode.CONFIGURATION_RSP)
    return rsp.fields["result"]


class TestOptionNegotiation:
    def test_reasonable_mtu_accepted(self):
        engine = make_engine()
        target_cid, _ = open_channel(engine)
        responses = engine.handle_l2cap(
            _config_with_options(target_cid, encode_options([mtu_option(0x0400)]))
        )
        assert _first_rsp_result(responses) == ConfigResult.SUCCESS

    def test_tiny_mtu_unacceptable(self):
        engine = make_engine()
        target_cid, _ = open_channel(engine)
        responses = engine.handle_l2cap(
            _config_with_options(
                target_cid, encode_options([mtu_option(MIN_SIGNALING_MTU - 1)])
            )
        )
        assert _first_rsp_result(responses) == ConfigResult.UNACCEPTABLE_PARAMETERS

    def test_unacceptable_mtu_does_not_advance_config(self):
        engine = make_engine()
        target_cid, _ = open_channel(engine)
        engine.handle_l2cap(
            _config_with_options(target_cid, encode_options([mtu_option(8)]))
        )
        block = engine.channels.get(target_cid)
        assert not block.remote_config_done
        assert block.state is ChannelState.WAIT_CONFIG

    def test_unknown_option_rejected(self):
        engine = make_engine()
        target_cid, _ = open_channel(engine)
        unknown = ConfigOption(0x7E, b"\x00")
        responses = engine.handle_l2cap(
            _config_with_options(target_cid, encode_options([unknown]))
        )
        assert _first_rsp_result(responses) == ConfigResult.UNKNOWN_OPTIONS

    def test_hint_option_ignored(self):
        engine = make_engine()
        target_cid, _ = open_channel(engine)
        hint = ConfigOption(0xFE, b"\x00")  # hint bit set: may be skipped
        responses = engine.handle_l2cap(
            _config_with_options(target_cid, encode_options([hint]))
        )
        assert _first_rsp_result(responses) == ConfigResult.SUCCESS

    def test_truncated_options_rejected(self):
        engine = make_engine()
        target_cid, _ = open_channel(engine)
        responses = engine.handle_l2cap(
            _config_with_options(target_cid, b"\x01\x04\x00")  # claims 4 bytes
        )
        assert _first_rsp_result(responses) == ConfigResult.REJECTED

    def test_known_non_mtu_options_accepted(self):
        engine = make_engine()
        target_cid, _ = open_channel(engine)
        flush_timeout = ConfigOption(ConfigOptionType.FLUSH_TIMEOUT, b"\xff\xff")
        # QoS: flags, best-effort service type, five 32-bit parameters.
        qos = ConfigOption(ConfigOptionType.QOS, b"\x00\x01" + bytes(12) + b"\xff" * 8)
        options = encode_options([flush_timeout, qos])
        responses = engine.handle_l2cap(_config_with_options(target_cid, options))
        assert _first_rsp_result(responses) == ConfigResult.SUCCESS

    def test_negotiation_retry_succeeds(self):
        engine = make_engine()
        target_cid, _ = open_channel(engine)
        engine.handle_l2cap(
            _config_with_options(target_cid, encode_options([mtu_option(8)]))
        )
        responses = engine.handle_l2cap(
            configuration_request(dcid=target_cid, identifier=8)
        )
        assert _first_rsp_result(responses) == ConfigResult.SUCCESS
        assert engine.channels.get(target_cid).remote_config_done
