"""Tests for the F/D/MC/MA field taxonomy (paper Fig. 6 and Table IV)."""

from __future__ import annotations

import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import FuzzConfig
from repro.core.mutation import CoreFieldMutator
from repro.l2cap.constants import (
    ABNORMAL_PSM_RANGES,
    CommandCode,
    SIGNALING_CID,
    is_valid_psm,
)
from repro.l2cap.fields import (
    CIDP_FIELD_NAMES,
    is_normal_cidp,
    random_abnormal_psm,
    random_normal_cidp,
)
from repro.l2cap.packets import COMMAND_SPECS

#: Paper Fig. 6: the mutable core fields (PSM + the CIDP channel fields).
MC_FIELDS = frozenset({"psm", "scid", "dcid", "icid", "cont_id"})

#: Every other data field of the 26 commands: mutable application fields.
MA_FIELDS = frozenset(
    {
        "cid",
        "credit",
        "flags",
        "info_type",
        "interval_max",
        "interval_min",
        "latency",
        "mps",
        "mtu",
        "reason",
        "result",
        "spsm",
        "status",
        "timeout",
    }
)

_SEEDS = range(20)


def _mutated(code, seed, identifier=1):
    """One packet as the campaign builds it: the mutator's wire path."""
    mutator = CoreFieldMutator(FuzzConfig(seed=seed), random.Random(seed))
    packet = mutator.mutate_wire(code, identifier)
    assert packet is not None
    return packet


def _wire_fields(code, raw):
    """Decode the data fields straight from the frame bytes."""
    spec = COMMAND_SPECS[code]
    values = struct.unpack_from(spec.pack_format, raw, 8)
    return dict(zip((field.name for field in spec.fields), values))


def _codes_with(name):
    return [code for code, spec in COMMAND_SPECS.items() if spec.has_field(name)]


def _mutated_names(code, seed=0):
    spec = COMMAND_SPECS[code]
    fields = _wire_fields(code, _mutated(code, seed).encode())
    return {name for name, value in fields.items() if value != spec.field(name).default}


class TestTaxonomy:
    def test_cidp_fields_match_figure6(self):
        assert CIDP_FIELD_NAMES == {"scid", "dcid", "icid", "cont_id"}

    def test_mc_fields_match_figure6(self):
        mutated = set()
        for code in COMMAND_SPECS:
            for seed in _SEEDS:
                mutated |= _mutated_names(code, seed)
        assert mutated == MC_FIELDS

    def test_cidp_is_mc_minus_psm(self):
        assert CIDP_FIELD_NAMES == MC_FIELDS - {"psm"}

    def test_ma_and_mc_disjoint(self):
        """MC and MA partition the data fields of all 26 commands."""
        names = {field.name for spec in COMMAND_SPECS.values() for field in spec.fields}
        assert not (MA_FIELDS & MC_FIELDS)
        assert names == MA_FIELDS | MC_FIELDS

    @pytest.mark.parametrize("name", ["header_cid"])
    def test_fixed_fields(self, name):
        for code in COMMAND_SPECS:
            packet = _mutated(code, seed=code)
            assert getattr(packet, name) == SIGNALING_CID
            assert struct.unpack_from("<H", packet.encode(), 2)[0] == SIGNALING_CID

    @pytest.mark.parametrize("name", ["payload_len", "code", "identifier", "data_len"])
    def test_dependent_fields(self, name):
        """Dependent fields are derived, never drawn: garbage lies past them."""
        for code in COMMAND_SPECS:
            spec = COMMAND_SPECS[code]
            identifier = (code * 7) & 0xFF
            raw = _mutated(code, seed=code, identifier=identifier).encode()
            payload_len, _, wire_code, wire_id, data_len = struct.unpack_from(
                "<HHBBH", raw
            )
            expected = {
                "payload_len": (payload_len, 4 + spec.fixed_size),
                "code": (wire_code, code),
                "identifier": (wire_id, identifier),
                "data_len": (data_len, spec.fixed_size),
            }
            assert expected[name][0] == expected[name][1]

    @pytest.mark.parametrize("name", sorted(MC_FIELDS))
    def test_mutable_core_fields(self, name):
        for code in _codes_with(name):
            spec = COMMAND_SPECS[code]
            values = {
                _wire_fields(code, _mutated(code, seed).encode())[name]
                for seed in _SEEDS
            }
            assert len(values) > 1
            assert values != {spec.field(name).default}
            for value in values:
                if name == "psm":
                    assert not is_valid_psm(value)
                elif spec.field(name).size == 2:
                    assert is_normal_cidp(value)

    @pytest.mark.parametrize("name", sorted(MA_FIELDS))
    def test_mutable_application_fields(self, name):
        codes = _codes_with(name)
        assert codes
        for code in codes:
            default = COMMAND_SPECS[code].field(name).default
            for seed in _SEEDS:
                assert _wire_fields(code, _mutated(code, seed).encode())[name] == default

    def test_packet_core_field_introspection(self):
        assert _mutated_names(CommandCode.CONNECTION_REQ) == {"psm", "scid"}

    def test_connection_rsp_has_ma_fields(self):
        code = CommandCode.CONNECTION_RSP
        assert _mutated_names(code) == {"dcid", "scid"}
        fields = _wire_fields(code, _mutated(code, 0).encode())
        assert fields["result"] == 0 and fields["status"] == 0

    def test_commands_with_core_fields_excludes_echo(self):
        for seed in _SEEDS:
            assert _mutated_names(CommandCode.ECHO_REQ, seed) == set()
        assert _mutated_names(CommandCode.CONNECTION_REQ)
        assert _mutated_names(CommandCode.MOVE_CHANNEL_REQ)


class TestTable4Pools:
    def test_abnormal_pool_contains_no_valid_psm(self):
        for start, end in ABNORMAL_PSM_RANGES:
            assert not any(is_valid_psm(value) for value in range(start, end + 1))

    def test_abnormal_pool_contains_all_even_values(self):
        """The even family: no even value is a valid PSM, 0x0000 included."""
        assert not any(is_valid_psm(value) for value in range(0x0000, 0x10000, 2))
        rng = random.Random(7)
        evens = {value for value in (random_abnormal_psm(rng) for _ in range(400))
                 if value % 2 == 0}
        assert len(evens) > 150  # drawn across the whole even space

    def test_is_abnormal_psm(self):
        assert not is_valid_psm(0x0100)  # odd MSB
        assert not is_valid_psm(0x0044)  # even
        assert is_valid_psm(0x0001)

    def test_is_normal_cidp_bounds(self):
        assert not is_normal_cidp(0x003F)
        assert is_normal_cidp(0x0040)
        assert is_normal_cidp(0xFFFF)
        assert not is_normal_cidp(0x10000)


class TestRandomDraws:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=100)
    def test_random_abnormal_psm_never_valid(self, seed):
        value = random_abnormal_psm(random.Random(seed))
        assert not is_valid_psm(value)
        assert 0 <= value <= 0xFFFF

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=100)
    def test_random_cidp_in_normal_range(self, seed):
        value = random_normal_cidp(random.Random(seed))
        assert is_normal_cidp(value)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=50)
    def test_random_cidp_one_byte_fits(self, seed):
        value = random_normal_cidp(random.Random(seed), field_size=1)
        assert 0 <= value <= 0xFF

    def test_both_abnormality_families_are_drawn(self):
        rng = random.Random(42)
        values = [random_abnormal_psm(rng) for _ in range(200)]
        assert any(v % 2 == 0 for v in values)  # even family
        assert any((v >> 8) & 1 for v in values)  # odd-MSB family
