"""Tests for phase 3 — core field mutating (Algorithm 1)."""

from __future__ import annotations

import random

from repro.core.config import FuzzConfig
from repro.core.mutation import CoreFieldMutator
from repro.l2cap.constants import CommandCode, SIGNALING_CID, is_valid_psm
from repro.l2cap.fields import is_normal_cidp
from repro.l2cap.validation import is_malformed


def _mutator(seed=0, mtu=672, **config_kwargs):
    config = FuzzConfig(seed=seed, **config_kwargs)
    return CoreFieldMutator(config, random.Random(seed), signaling_mtu=mtu)


class TestAlgorithm1:
    def test_psm_always_abnormal(self):
        mutator = _mutator()
        for _ in range(100):
            packet = mutator.mutate(CommandCode.CONNECTION_REQ, 1)
            assert not is_valid_psm(packet.fields["psm"])

    def test_cidp_always_in_normal_range(self):
        mutator = _mutator()
        for _ in range(100):
            packet = mutator.mutate(CommandCode.CONFIGURATION_REQ, 1)
            assert is_normal_cidp(packet.fields["dcid"])

    def test_one_byte_cont_id_fits(self):
        mutator = _mutator()
        for _ in range(50):
            packet = mutator.mutate(CommandCode.CREATE_CHANNEL_REQ, 1)
            assert 0 <= packet.fields["cont_id"] <= 0xFF

    def test_f_field_never_touched(self):
        mutator = _mutator()
        for code in (CommandCode.ECHO_REQ, CommandCode.CONNECTION_REQ):
            packet = mutator.mutate(code, 1)
            assert packet.header_cid == SIGNALING_CID

    def test_d_fields_stay_consistent(self):
        """Lengths derived, never lied about — D is kept valid."""
        mutator = _mutator()
        packet = mutator.mutate(CommandCode.CONNECTION_REQ, 9)
        assert packet.declared_payload_len is None
        assert packet.declared_data_len is None
        assert packet.identifier == 9

    def test_ma_fields_keep_defaults(self):
        mutator = _mutator()
        packet = mutator.mutate(CommandCode.CONNECTION_RSP, 1)
        assert packet.fields["result"] == 0
        assert packet.fields["status"] == 0

    def test_garbage_always_appended(self):
        mutator = _mutator()
        for code in (CommandCode.ECHO_REQ, CommandCode.CONFIGURATION_REQ):
            for _ in range(20):
                assert mutator.mutate(code, 1).garbage

    def test_garbage_respects_mtu(self):
        mutator = _mutator(mtu=48)
        for _ in range(100):
            packet = mutator.mutate(CommandCode.CREDIT_BASED_CONNECTION_REQ, 1)
            assert packet.wire_length <= 48

    def test_every_mutated_packet_is_malformed(self):
        """The whole point: mutated packets count toward the MP ratio."""
        mutator = _mutator()
        for code in (
            CommandCode.CONNECTION_REQ,
            CommandCode.CONFIGURATION_REQ,
            CommandCode.ECHO_REQ,
            CommandCode.MOVE_CHANNEL_REQ,
        ):
            assert is_malformed(mutator.mutate(code, 1))

    def test_mutation_is_deterministic_per_seed(self):
        a = _mutator(seed=7).mutate(CommandCode.CONNECTION_REQ, 1)
        b = _mutator(seed=7).mutate(CommandCode.CONNECTION_REQ, 1)
        assert a.fields == b.fields
        assert a.garbage == b.garbage

    def test_different_seeds_differ(self):
        a = _mutator(seed=1).mutate(CommandCode.CONNECTION_REQ, 1)
        b = _mutator(seed=2).mutate(CommandCode.CONNECTION_REQ, 1)
        assert a.fields != b.fields or a.garbage != b.garbage
