"""Property-based tests for the mutator: Algorithm 1 invariants hold for
every command and every seed — plus fleet-seed derivation and campaign
visit-accounting invariants."""

from __future__ import annotations

import random
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.core.config import FuzzConfig
from repro.core.fleet import derive_campaign_seed
from repro.core.fuzzer import L2Fuzz
from repro.core.mutation import CoreFieldMutator
from repro.core.state_guiding import StateGuide
from repro.core.strategies import STRATEGY_NAMES, make_strategy
from repro.l2cap.constants import MIN_SIGNALING_MTU, is_valid_psm
from repro.l2cap.fields import CIDP_FIELD_NAMES
from repro.l2cap.packets import COMMAND_SPECS, L2capPacket
from repro.l2cap.validation import is_malformed

from tests.conftest import make_rig


_codes = st.sampled_from(sorted(COMMAND_SPECS))
_seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _mutate(code, seed):
    mutator = CoreFieldMutator(
        FuzzConfig(seed=seed), random.Random(seed), signaling_mtu=MIN_SIGNALING_MTU
    )
    return mutator.mutate(None, code, identifier=1)


class TestMutatorProperties:
    @given(_codes, _seeds)
    @settings(max_examples=300)
    def test_only_mc_fields_deviate_from_defaults(self, code, seed):
        packet = _mutate(code, seed)
        spec = COMMAND_SPECS[code]
        for field in spec.fields:
            if field.name != "psm" and field.name not in CIDP_FIELD_NAMES:
                assert packet.fields[field.name] == field.default

    @given(_codes, _seeds)
    @settings(max_examples=300)
    def test_mutated_packets_stay_within_mtu(self, code, seed):
        assert _mutate(code, seed).wire_length <= MIN_SIGNALING_MTU

    @given(_codes, _seeds)
    @settings(max_examples=300)
    def test_mutated_packets_always_decodable(self, code, seed):
        packet = _mutate(code, seed)
        decoded = L2capPacket.decode(packet.encode())
        assert decoded.code == code
        assert decoded.fields == packet.fields

    @given(_codes, _seeds)
    @settings(max_examples=300)
    def test_mutated_packets_always_malformed(self, code, seed):
        assert is_malformed(_mutate(code, seed))

    @given(_codes, _seeds)
    @settings(max_examples=200)
    def test_psm_mutations_never_valid(self, code, seed):
        packet = _mutate(code, seed)
        psm = packet.fields.get("psm")
        if psm is not None:
            assert not is_valid_psm(psm)

    @given(_codes, _seeds)
    @settings(max_examples=200)
    def test_cidp_mutations_in_table4_range(self, code, seed):
        packet = _mutate(code, seed)
        spec = COMMAND_SPECS[code]
        for name in CIDP_FIELD_NAMES & set(packet.fields):
            if spec.field(name).size == 2:
                assert 0x0040 <= packet.fields[name] <= 0xFFFF


class TestFleetSeedDerivation:
    """Per-campaign seed derivation invariants for fleet runs."""

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=2, max_value=1024),
    )
    @settings(max_examples=50, deadline=None)
    def test_derived_seeds_never_collide(self, fleet_seed, fleet_size):
        seeds = [
            derive_campaign_seed(fleet_seed, index) for index in range(fleet_size)
        ]
        assert len(set(seeds)) == fleet_size

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_derivation_is_deterministic(self, fleet_seed):
        assert derive_campaign_seed(fleet_seed, 7) == derive_campaign_seed(
            fleet_seed, 7
        )

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=1023),
    )
    @settings(max_examples=100, deadline=None)
    def test_derived_seed_in_64bit_range(self, fleet_seed, index):
        seed = derive_campaign_seed(fleet_seed, index)
        assert 0 <= seed < 2**64


class TestVisitAccounting:
    """CampaignReport visit counts always equal the guide's enter calls."""

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=100, max_value=600),
        st.sampled_from(STRATEGY_NAMES),
    )
    @settings(max_examples=12, deadline=None)
    def test_state_visits_sum_to_enter_calls(self, seed, budget, strategy_name):
        entered = []

        class CountingGuide(StateGuide):
            def enter(self, state):
                guided = super().enter(state)
                entered.append(state)
                return guided

        device, link, _ = make_rig(armed=False)
        fuzzer = L2Fuzz(
            link=link,
            inquiry=device.inquiry,
            browse=device.services.all_records,
            config=FuzzConfig(max_packets=budget, seed=seed),
            strategy=make_strategy(strategy_name),
        )
        # The engine reaches StateGuide through the L2CAP target adapter.
        with mock.patch("repro.targets.l2cap.StateGuide", CountingGuide):
            report = fuzzer.run()
        assert sum(count for _, count in report.state_visits) == len(entered)
        # And per-state: the report's counts match the observed entries.
        observed: dict[str, int] = {}
        for state in entered:
            observed[state.value] = observed.get(state.value, 0) + 1
        assert dict(report.state_visits) == observed
