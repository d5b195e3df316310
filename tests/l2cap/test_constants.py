"""Tests for the protocol constants (paper §II.A facts)."""

from __future__ import annotations

import pytest

from repro.l2cap.constants import (
    ABNORMAL_PSM_RANGES,
    CIDP_MUTATION_RANGE,
    CommandCode,
    DYNAMIC_CID_MAX,
    DYNAMIC_CID_MIN,
    Psm,
    SIGNALING_CID,
    is_valid_psm,
)


class TestCommandCodes:
    def test_there_are_26_commands(self):
        assert len(CommandCode) == 26

    def test_codes_are_contiguous_from_1(self):
        values = sorted(code.value for code in CommandCode)
        assert values == list(range(0x01, 0x1B))


class TestSignalingChannel:
    def test_signaling_cid_is_0x0001(self):
        assert SIGNALING_CID == 0x0001

    def test_dynamic_range_starts_at_0x0040(self):
        assert DYNAMIC_CID_MIN == 0x0040
        assert DYNAMIC_CID_MAX == 0xFFFF


class TestPsmValidity:
    @pytest.mark.parametrize("psm", [Psm.SDP, Psm.RFCOMM, Psm.AVDTP, 0x1001])
    def test_wellknown_psms_are_valid(self, psm):
        assert is_valid_psm(psm)

    @pytest.mark.parametrize("psm", [0x0000, 0x0002, 0x0100, 0x0101, 0x0300])
    def test_even_or_odd_msb_psms_are_invalid(self, psm):
        assert not is_valid_psm(psm)

    def test_psm_must_be_16_bit(self):
        assert not is_valid_psm(0x10001)
        assert not is_valid_psm(-1)

    def test_odd_lsb_even_msb_rule(self):
        # LSB of low byte must be 1, LSB of high byte must be 0.
        assert is_valid_psm(0x0201)
        assert not is_valid_psm(0x0301 | 0x0100)  # 0x0301 has odd MSB... explicit:
        assert not is_valid_psm(0x0101)


class TestTable4Ranges:
    def test_abnormal_psm_ranges_match_table4(self):
        assert ABNORMAL_PSM_RANGES == (
            (0x0100, 0x01FF),
            (0x0300, 0x03FF),
            (0x0500, 0x05FF),
            (0x0700, 0x07FF),
            (0x0900, 0x09FF),
            (0x0B00, 0x0BFF),
            (0x0D00, 0x0DFF),
        )

    def test_abnormal_ranges_contain_no_valid_psm(self):
        for start, end in ABNORMAL_PSM_RANGES:
            for psm in range(start, end + 1, 37):
                assert not is_valid_psm(psm)

    def test_cidp_range_is_the_dynamic_range(self):
        assert CIDP_MUTATION_RANGE == (0x0040, 0xFFFF)
