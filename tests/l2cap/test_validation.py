"""Tests for spec-conformance validation and malformedness classification."""

from __future__ import annotations

from repro.l2cap.constants import CONNECTIONLESS_CID, CommandCode, RejectReason
from repro.l2cap.packets import (
    L2capPacket,
    configuration_request,
    connection_request,
    echo_request,
)
from repro.l2cap.validation import (
    Violation,
    frame_violations,
    is_malformed,
    structural_reject_reason,
)


def _validate(packet, mtu=672, cids=frozenset()):
    return frame_violations(packet, signaling_mtu=mtu, allocated_cids=cids)


class TestFrameViolations:
    def test_clean_packet_has_no_violations(self):
        report = _validate(echo_request(b"hi"))
        assert report.violations == ()

    def test_unknown_code(self):
        report = _validate(L2capPacket(code=0x7F))
        assert report.has(Violation.UNKNOWN_CODE)

    def test_garbage_tail_detected(self):
        packet = L2capPacket(CommandCode.ECHO_REQ, garbage=b"\xde\xad")
        assert _validate(packet).has(Violation.GARBAGE_TAIL)

    def test_mtu_exceeded(self):
        packet = echo_request(b"x" * 100)
        assert _validate(packet, mtu=48).has(Violation.MTU_EXCEEDED)

    def test_length_lie_detected(self):
        packet = L2capPacket(CommandCode.ECHO_REQ, tail=b"abcd", declared_payload_len=2)
        assert _validate(packet).has(Violation.LENGTH_MISMATCH)

    def test_truncated_fields_detected(self):
        packet = L2capPacket(
            CommandCode.CONNECTION_REQ, fields={"psm": 1}, fill_defaults=False
        )
        assert _validate(packet).has(Violation.TRUNCATED_FIELDS)

    def test_invalid_psm_detected(self):
        packet = connection_request(psm=0x0100, scid=0x0040)
        report = _validate(packet, cids=frozenset({0x0040}))
        assert report.has(Violation.INVALID_PSM)

    def test_unallocated_cid_detected(self):
        packet = configuration_request(dcid=0x1234)
        assert _validate(packet).has(Violation.UNALLOCATED_CID)

    def test_allocated_cid_is_clean(self):
        packet = configuration_request(dcid=0x0040)
        report = _validate(packet, cids=frozenset({0x0040}))
        assert not report.has(Violation.UNALLOCATED_CID)

    def test_controller_id_not_treated_as_channel_endpoint(self):
        packet = L2capPacket(
            CommandCode.CREATE_CHANNEL_REQ,
            fields={"psm": 1, "scid": 0x0040, "cont_id": 0x41},
        )
        report = _validate(packet, cids=frozenset({0x0040}))
        assert not report.has(Violation.UNALLOCATED_CID)


class TestDataFrames:
    def test_connectionless_data_is_clean(self):
        packet = L2capPacket(code=0, header_cid=CONNECTIONLESS_CID, tail=b"blob")
        assert _validate(packet).violations == ()

    def test_data_to_allocated_channel_is_clean(self):
        packet = L2capPacket(code=0, header_cid=0x0040, tail=b"blob")
        assert _validate(packet, cids=frozenset({0x0040})).violations == ()

    def test_data_to_unallocated_channel_is_malformed(self):
        packet = L2capPacket(code=0, header_cid=0x0999, tail=b"blob")
        assert _validate(packet).has(Violation.BAD_HEADER_CID)


class TestRejectReasonMapping:
    """The §III.D reject semantics the taxonomy is designed around."""

    def test_mutated_d_gives_command_not_understood(self):
        packet = L2capPacket(CommandCode.ECHO_REQ, tail=b"abcd", declared_data_len=1)
        reason = structural_reject_reason(packet, 672)
        assert reason == RejectReason.COMMAND_NOT_UNDERSTOOD

    def test_mtu_violation_gives_mtu_exceeded(self):
        packet = echo_request(b"x" * 100)
        reason = structural_reject_reason(packet, 48)
        assert reason == RejectReason.SIGNALING_MTU_EXCEEDED

    def test_core_field_mutated_packet_is_not_rejected(self):
        """The paper's key design point: abnormal PSM + garbage parse fine."""
        packet = L2capPacket(
            CommandCode.CONNECTION_REQ,
            fields={"psm": 0x0100, "scid": 0x0040},
            garbage=b"\x01\x02",
        )
        assert structural_reject_reason(packet, 672) is None


class TestIsMalformed:
    def test_valid_transition_packet_is_not_malformed(self):
        assert not is_malformed(connection_request(psm=1, scid=0x40))

    def test_garbage_makes_malformed(self):
        packet = L2capPacket(CommandCode.ECHO_REQ, garbage=b"\x00")
        assert is_malformed(packet)

    def test_abnormal_psm_makes_malformed(self):
        assert is_malformed(connection_request(psm=0x0300, scid=0x40))

    def test_unallocated_cidp_makes_malformed(self):
        assert is_malformed(configuration_request(dcid=0x0999))

    def test_cidp_matching_observed_allocation_is_clean(self):
        packet = configuration_request(dcid=0x0999)
        assert not is_malformed(packet, allocated_cids=frozenset({0x0999}))

