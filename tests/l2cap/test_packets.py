"""Tests for the L2CAP packet codec (paper Fig. 3 / Fig. 7 framing)."""

from __future__ import annotations

import struct

import pytest

from repro.errors import PacketDecodeError, PacketEncodeError
from repro.l2cap.constants import CommandCode, ConfigOptionType, SIGNALING_CID
from repro.l2cap.packets import (
    COMMAND_SPECS,
    ConfigOption,
    L2capPacket,
    command_reject,
    configuration_request,
    connection_request,
    decode_options,
    default_packet,
    disconnection_request,
    echo_request,
    encode_options,
    mtu_option,
)


class TestCommandSpecs:
    def test_all_26_commands_have_specs(self):
        assert len(COMMAND_SPECS) == 26

    def test_connection_req_has_psm_and_scid(self):
        spec = COMMAND_SPECS[CommandCode.CONNECTION_REQ]
        assert [f.name for f in spec.fields] == ["psm", "scid"]
        assert spec.fixed_size == 4

    def test_connection_rsp_has_four_fields(self):
        spec = COMMAND_SPECS[CommandCode.CONNECTION_RSP]
        assert [f.name for f in spec.fields] == ["dcid", "scid", "result", "status"]

    def test_create_channel_req_has_controller_id(self):
        spec = COMMAND_SPECS[CommandCode.CREATE_CHANNEL_REQ]
        assert spec.has_field("cont_id")
        assert spec.field("cont_id").size == 1

    def test_unknown_field_lookup_raises(self):
        spec = COMMAND_SPECS[CommandCode.ECHO_REQ]
        with pytest.raises(KeyError):
            spec.field("psm")

    def test_spec_for_unknown_code_is_none(self):
        for code in (0x7F, 0x00):
            packet = L2capPacket(code=code)
            assert packet.spec is None
            assert packet.command_name == f"UNKNOWN_0x{code:02X}"

    @pytest.mark.parametrize(
        "code", sorted(COMMAND_SPECS), ids=lambda code: CommandCode(code).name
    )
    def test_fields_defaults(self, code):
        """A bare packet carries its spec's defaults and round-trips them."""
        packet = L2capPacket(code)
        assert packet.fields == COMMAND_SPECS[code].defaults
        decoded = L2capPacket.decode(packet.encode())
        assert decoded.fields == packet.fields
        assert decoded.encode() == packet.encode()

    def test_information_request_defaults_to_extended_features(self):
        assert L2capPacket(CommandCode.INFORMATION_REQ).fields == {"info_type": 0x0002}


class TestEncodeDecodeRoundTrip:
    def test_connection_request_wire_format(self):
        packet = connection_request(psm=0x0001, scid=0x0040, identifier=2)
        raw = packet.encode()
        # P-LEN=8, H-CID=1, CODE=2, ID=2, DATA-LEN=4, PSM=1, SCID=0x40
        assert raw == bytes.fromhex("0800 0100 02 02 0400 0100 4000".replace(" ", ""))

    def test_round_trip_preserves_fields(self):
        packet = connection_request(psm=0x0019, scid=0x0051, identifier=7)
        decoded = L2capPacket.decode(packet.encode())
        assert decoded.code == CommandCode.CONNECTION_REQ
        assert decoded.identifier == 7
        assert decoded.fields == {"psm": 0x0019, "scid": 0x0051}

    def test_garbage_tail_not_counted_in_lengths(self):
        """The Fig. 7 property: lengths describe the un-garbaged packet."""
        packet = configuration_request(dcid=0x8F7B, identifier=6)
        base = packet.encode()
        packet = packet.replace(garbage=bytes.fromhex("D23A910E"))
        raw = packet.encode()
        assert raw[:8] == base[:8]  # both declared lengths unchanged
        decoded = L2capPacket.decode(raw)
        assert decoded.garbage == bytes.fromhex("D23A910E")
        assert decoded.declared_payload_len is None  # lengths still consistent

    def test_declared_length_override_survives_round_trip(self):
        packet = L2capPacket(
            CommandCode.ECHO_REQ, 1, tail=b"AAAA", declared_data_len=2
        )
        decoded = L2capPacket.decode(packet.encode())
        # Two bytes of the payload became the declared region, the rest
        # trailing garbage; the length lie is preserved.
        assert decoded.tail == b"AA"
        assert decoded.garbage == b"AA"

    def test_decode_too_short_raises(self):
        with pytest.raises(PacketDecodeError):
            L2capPacket.decode(b"\x00\x00\x01")

    def test_decode_data_len_beyond_body_raises(self):
        raw = bytes.fromhex("0800010002020400")  # claims 4 data bytes, has 0
        with pytest.raises(PacketDecodeError):
            L2capPacket.decode(raw)

    def test_unknown_code_decodes_with_tail(self):
        raw = bytes.fromhex("060001007F010200BEEF")
        decoded = L2capPacket.decode(raw)
        assert decoded.spec is None
        assert decoded.command_name == "UNKNOWN_0x7F"
        assert decoded.tail == bytes.fromhex("BEEF")

    def test_truncated_fields_partially_decoded(self):
        # CONNECTION_REQ with only 2 of 4 data bytes.
        raw = bytes.fromhex("0600010002010200" + "0100")
        decoded = L2capPacket.decode(raw)
        assert decoded.fields == {"psm": 0x0001}

    def test_field_value_too_large_raises_on_encode(self):
        packet = connection_request(psm=0x10000, scid=0)
        with pytest.raises(PacketEncodeError):
            packet.encode()

    def test_payload_over_l2cap_max_raises(self):
        packet = echo_request(b"x" * 70_000)
        with pytest.raises(PacketEncodeError):
            packet.encode()


class TestPacketHelpers:
    def test_replace_leaves_the_original(self):
        packet = connection_request(psm=1, scid=0x40)
        changed = packet.replace(fields={**packet.fields, "psm": 0x19})
        assert changed.fields == {"psm": 0x19, "scid": 0x40}
        assert packet.fields["psm"] == 1
        assert changed.fields is not packet.fields

    def test_default_packet_keeps_spec_field_order(self):
        packet = default_packet(CommandCode.CONNECTION_RSP, result=1, dcid=0x40)
        assert list(packet.fields) == ["dcid", "scid", "result", "status"]
        assert packet.loopback_view() is packet

    def test_assignment_refused(self):
        packet = connection_request(psm=1, scid=0x40)
        with pytest.raises(AttributeError):
            packet.garbage = b"\x00"
        with pytest.raises(AttributeError):
            del packet.code
        assert packet.garbage == b"" and packet.code == CommandCode.CONNECTION_REQ

    def test_describe_mentions_command_and_fields(self):
        packet = disconnection_request(dcid=0x40, scid=0x50, identifier=3)
        text = packet.describe()
        assert "DISCONNECTION_REQ" in text
        assert "0x0040" in text

    def test_default_packet_rejects_unknown_field(self):
        with pytest.raises(KeyError):
            default_packet(CommandCode.ECHO_REQ, psm=1)

    def test_default_packet_sets_field(self):
        packet = default_packet(CommandCode.CONNECTION_REQ, psm=0x19)
        assert packet.fields["psm"] == 0x19

    def test_command_reject_carries_reason(self):
        packet = command_reject(reason=0x0002, identifier=9)
        assert packet.fields["reason"] == 0x0002
        assert packet.identifier == 9

    def test_header_cid_defaults_to_signaling(self):
        assert echo_request().header_cid == SIGNALING_CID


class TestConfigOptions:
    def test_mtu_option_round_trip(self):
        raw = encode_options([mtu_option(0x0400)])
        options = decode_options(raw)
        assert len(options) == 1
        assert options[0].option_type == 0x01
        assert options[0].value == (0x0400).to_bytes(2, "little")

    def test_qos_option_has_flags_and_five_params(self):
        # Flags, service type, then five 32-bit parameters (Core 5.2
        # Vol 3 Part A §5.3).
        value = struct.pack("<BB5I", 0, 0x01, 0, 0, 0, 0xFFFFFFFF, 0xFFFFFFFF)
        assert len(value) == 2 + 5 * 4
        raw = encode_options([ConfigOption(ConfigOptionType.QOS, value)])
        options = decode_options(raw)
        assert [(o.option_type, o.value) for o in options] == [(0x03, value)]
        packet = configuration_request(dcid=0x0040, options=options)
        assert L2capPacket.decode(packet.encode()).tail == raw

    def test_truncated_option_raises(self):
        with pytest.raises(PacketDecodeError):
            decode_options(b"\x01\x04\x00")

    def test_oversized_option_value_raises(self):
        with pytest.raises(PacketEncodeError):
            ConfigOption(0x01, b"x" * 300).encode()

    def test_multiple_options_round_trip(self):
        raw = encode_options([mtu_option(100), mtu_option(200)])
        options = decode_options(raw)
        assert len(options) == 2


class TestCidList:
    """The credit-based commands carry their SCIDs as a trailing CID list."""

    def test_round_trip(self):
        cids = [0x0040, 0x0041, 0xFFFF]
        packet = L2capPacket(
            CommandCode.CREDIT_BASED_CONNECTION_REQ, tail=struct.pack("<3H", *cids)
        )
        decoded = L2capPacket.decode(packet.encode())
        assert list(struct.unpack(f"<{len(decoded.tail) // 2}H", decoded.tail)) == cids
        assert struct.unpack_from("<H", decoded.encode()) == (4 + 8 + 2 * len(cids),)

    def test_empty_list(self):
        packet = L2capPacket(CommandCode.CREDIT_BASED_RECONFIGURE_REQ)
        decoded = L2capPacket.decode(packet.encode())
        assert decoded.tail == b""
        assert decoded.garbage == b""
