"""The mutator's inlined RNG draws are the ``random.Random`` methods.

``CoreFieldMutator`` draws PSMs, CIDPs and garbage tails with inlined
``getrandbits`` rejection loops instead of calling ``randrange``,
``randint`` and ``choice``. Seeded campaigns are only reproducible if
every inlined draw returns the value the replaced method would and
leaves the generator in the same state. These properties pin both, for
every range the mutator draws from, against a twin generator driven
through the public ``random.Random`` API.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import FuzzConfig
from repro.core.mutation import CoreFieldMutator
from repro.l2cap.constants import (
    ABNORMAL_PSM_RANGES,
    CIDP_MUTATION_RANGE,
    MIN_SIGNALING_MTU,
    CommandCode,
)
from repro.l2cap.fields import CIDP_FIELD_NAMES
from repro.l2cap.packets import COMMAND_SPECS

_seeds = st.integers(min_value=0, max_value=2**32 - 1)
#: The PSM pool's branches: each odd-MSB range by index, and the even space.
_PSM_BRANCHES = tuple(range(len(ABNORMAL_PSM_RANGES))) + ("even",)


def _reference_psm(rng: random.Random) -> int:
    """Table IV ``random(abnormal)`` through the ``random.Random`` API."""
    if rng.random() < 0.5:
        start, end = rng.choice(ABNORMAL_PSM_RANGES)
        return rng.randrange(start, end + 1)
    return rng.randrange(0x0000, 0x10000, 2)


def _reference_cidp(rng: random.Random, size: int) -> int:
    if size == 1:
        return rng.randrange(0x00, 0x100)
    low, high = CIDP_MUTATION_RANGE
    return rng.randrange(low, high + 1)


def _reference_garbage(
    rng: random.Random, limit: int, dictionary: tuple[bytes, ...]
) -> bytes:
    if dictionary and rng.random() < CoreFieldMutator.SPLICE_RATE:
        return dictionary[rng.randrange(len(dictionary))][:limit]
    length = rng.randint(1, limit)
    return bytes(rng.getrandbits(8) for _ in range(length))


def _psm_branch(seed: int):
    """Which branch of the PSM pool the first draw from *seed* takes."""
    rng = random.Random(seed)
    if rng.random() < 0.5:
        return ABNORMAL_PSM_RANGES.index(rng.choice(ABNORMAL_PSM_RANGES))
    return "even"


def _seed_for_branch(base: int, branch) -> int:
    """The first seed at or after *base* whose PSM draw takes *branch*."""
    seed = base
    while _psm_branch(seed) != branch:
        seed += 1
    return seed


def _assert_wire_draws_match(code: int, seed: int) -> None:
    config = FuzzConfig()
    rng = random.Random(seed)
    packet = CoreFieldMutator(config, rng).mutate_wire(code, 7)
    twin = random.Random(seed)
    spec = COMMAND_SPECS[code]
    for field in spec.fields:
        if field.name == "psm":
            assert packet.fields["psm"] == _reference_psm(twin)
        elif field.name in CIDP_FIELD_NAMES:
            assert packet.fields[field.name] == _reference_cidp(twin, field.size)
    headroom = MIN_SIGNALING_MTU - (8 + spec.fixed_size)
    limit = min(config.max_garbage, headroom)
    assert packet.garbage == _reference_garbage(twin, limit, ())
    assert rng.getstate() == twin.getstate()


class TestMutateWireDraws:
    @pytest.mark.parametrize("branch", _PSM_BRANCHES)
    @pytest.mark.parametrize(
        "code", [CommandCode.CONNECTION_REQ, CommandCode.CREATE_CHANNEL_REQ]
    )
    @given(base=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=25, deadline=None)
    def test_every_psm_range(self, code, branch, base):
        """Each of the 7 odd-MSB ranges and the even space, forced."""
        _assert_wire_draws_match(code, _seed_for_branch(base, branch))

    @pytest.mark.parametrize("code", sorted(COMMAND_SPECS))
    @given(seed=_seeds)
    @settings(max_examples=40, deadline=None)
    def test_every_command_layout(self, code, seed):
        """CIDP 0x0040-0xFFFF, the 1-byte CONT_ID and garbage, per layout."""
        _assert_wire_draws_match(code, seed)

    @given(
        seed=_seeds,
        codes=st.lists(st.sampled_from(sorted(COMMAND_SPECS)), max_size=12),
    )
    @settings(max_examples=50, deadline=None)
    def test_stream_stays_in_step_across_packets(self, seed, codes):
        """Back-to-back draws consume the stream like the object path."""
        wire = CoreFieldMutator(FuzzConfig(), random.Random(seed))
        reference = CoreFieldMutator(FuzzConfig(), random.Random(seed))
        for identifier, code in enumerate(codes, start=1):
            produced = wire.mutate_wire(code, identifier)
            expected = reference.mutate(code, identifier)
            assert produced.encode() == expected.encode()
        assert wire.rng.getstate() == reference.rng.getstate()


class TestGarbageDraws:
    @given(
        seed=_seeds,
        max_garbage=st.integers(min_value=1, max_value=40),
        headroom=st.integers(min_value=-4, max_value=40),
        dictionary=st.one_of(
            st.just(()),
            st.lists(
                st.binary(min_size=1, max_size=24), min_size=1, max_size=9
            ).map(tuple),
        ),
    )
    @settings(max_examples=400, deadline=None)
    def test_tail_matches_random_methods(self, seed, max_garbage, headroom, dictionary):
        """Every length 1..min(max_garbage, headroom), with and without
        a splice dictionary; no draw at all when there is no headroom."""
        rng = random.Random(seed)
        mutator = CoreFieldMutator(
            FuzzConfig(max_garbage=max_garbage), rng, dictionary=dictionary
        )
        tail = mutator._garbage_for_length(MIN_SIGNALING_MTU - headroom)
        twin = random.Random(seed)
        if headroom <= 0:
            assert tail == b""
        else:
            assert tail == _reference_garbage(
                twin, min(max_garbage, headroom), dictionary
            )
        assert rng.getstate() == twin.getstate()
