"""The mutators' inlined RNG draws are the ``random.Random`` methods.

``CoreFieldMutator`` draws PSMs, CIDPs and garbage tails, and the SDP,
OBEX and RFCOMM mutators draw handles, UUIDs, names, bodies and DLCIs,
with inlined ``getrandbits`` rejection loops instead of calling
``randrange``, ``randint`` and ``choice``. Seeded campaigns are only
reproducible if every inlined draw returns the value the replaced
method would and leaves the generator in the same state. These
properties pin both, for every range the mutators draw from, against a
twin generator driven through the public ``random.Random`` API (and,
for the data-frame mutators, against payloads built through the
protocol codecs' objects, the way the mutators built them before they
assembled bytes directly).
"""

from __future__ import annotations

import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import FuzzConfig
from repro.core.mutation import SPLICE_RATE, CoreFieldMutator, draw_garbage
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
    if dictionary and rng.random() < SPLICE_RATE:
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
        headroom=st.one_of(st.none(), st.integers(min_value=-4, max_value=40)),
        dictionary=st.one_of(
            st.just(()),
            st.lists(
                st.binary(min_size=1, max_size=24), min_size=1, max_size=9
            ).map(tuple),
        ),
    )
    @settings(max_examples=400, deadline=None)
    def test_tail_matches_random_methods(self, seed, max_garbage, headroom, dictionary):
        """Every length 1..min(max_garbage, headroom) (1..max_garbage
        unclamped, the protocol mutators' draw), with and without a
        splice dictionary; no draw at all when there is no headroom."""
        rng = random.Random(seed)
        tail = draw_garbage(rng, max_garbage, dictionary, headroom)
        twin = random.Random(seed)
        limit = max_garbage if headroom is None else min(max_garbage, headroom)
        if limit <= 0:
            assert tail == b""
        else:
            assert tail == _reference_garbage(twin, limit, dictionary)
        assert rng.getstate() == twin.getstate()


# -- the data-frame mutators --------------------------------------------------------
#
# Each reference below builds the mutator's payload from codec objects
# and the ``random.Random`` methods the inlined draws replace. Driving the
# mutator and its reference from twin generators must give the same
# bytes and leave both generators in the same state.


def _dictionaries():
    return st.one_of(
        st.just(()),
        st.lists(st.binary(min_size=1, max_size=24), min_size=1, max_size=6).map(
            tuple
        ),
    )


def _reference_sdp(rng, command, handles, transaction, dictionary):
    from repro.sdp.constants import PduId
    from repro.sdp.data_elements import sequence, uint32, uuid16
    from repro.sdp.pdu import NO_CONTINUATION, SdpPdu

    def pattern():
        return sequence(
            *[uuid16(rng.getrandbits(16)) for _ in range(rng.randint(1, 3))]
        )

    def handle():
        if handles and rng.random() < 0.25:
            return (
                handles[rng.randrange(len(handles))] ^ (1 << rng.randrange(16))
            ) & 0xFFFFFFFF
        return rng.getrandbits(32)

    if command == PduId.SERVICE_SEARCH_REQUEST:
        parameters = (
            pattern().encode()
            + struct.pack(">H", rng.getrandbits(16))
            + NO_CONTINUATION
        )
    elif command == PduId.SERVICE_ATTRIBUTE_REQUEST:
        parameters = (
            struct.pack(">IH", handle(), rng.getrandbits(16))
            + sequence(uint32(rng.getrandbits(32))).encode()
            + NO_CONTINUATION
        )
    else:
        parameters = (
            pattern().encode()
            + struct.pack(">H", rng.getrandbits(16))
            + sequence(uint32(rng.getrandbits(32))).encode()
            + NO_CONTINUATION
        )
    parameters += _reference_garbage(rng, 16, dictionary)
    return SdpPdu(command, transaction, parameters).encode()


def _reference_obex(rng, command, dictionary):
    from repro.obex.constants import HeaderId, Opcode
    from repro.obex.packets import ObexHeader, ObexPacket
    from repro.targets.obex import GARBAGE_HEADER_ID

    headers = []
    extras = None
    if command == Opcode.CONNECT:
        extras = (rng.getrandbits(8), rng.getrandbits(8), rng.getrandbits(16))
    if command in (Opcode.PUT_FINAL, Opcode.GET_FINAL):
        name = "".join(
            chr(rng.randrange(0x20, 0x7F)) for _ in range(rng.randint(0, 12))
        )
        headers.append(ObexHeader(HeaderId.NAME, name))
    if command == Opcode.PUT_FINAL:
        body = bytes(rng.getrandbits(8) for _ in range(rng.randint(0, 8)))
        headers.append(ObexHeader(HeaderId.LENGTH, rng.getrandbits(32)))
        headers.append(ObexHeader(HeaderId.END_OF_BODY, body))
    if rng.random() < 0.5:
        headers.append(ObexHeader(HeaderId.CONNECTION_ID, rng.getrandbits(32)))
    garbage = _reference_garbage(rng, 16, dictionary)
    if garbage:
        headers.append(ObexHeader(GARBAGE_HEADER_ID, garbage))
    return ObexPacket(command, tuple(headers), connect_extras=extras).encode()


def _reference_rfcomm(rng, command, dictionary):
    from repro.rfcomm.constants import MAX_DLCI, FrameType
    from repro.rfcomm.frames import RfcommFrame, uih

    dlci = rng.randrange(0, MAX_DLCI + 1)
    if command == FrameType.UIH:
        frame = uih(dlci, bytes(rng.getrandbits(8) for _ in range(4)))
    else:
        frame = RfcommFrame(dlci, command)
    return frame.encode() + _reference_garbage(rng, 16, dictionary)


def _sdp_commands():
    from repro.sdp.constants import PduId

    return sorted(
        (
            PduId.SERVICE_SEARCH_REQUEST,
            PduId.SERVICE_ATTRIBUTE_REQUEST,
            PduId.SERVICE_SEARCH_ATTRIBUTE_REQUEST,
        )
    )


def _obex_commands():
    from repro.targets.obex import STATE_OPCODES

    return sorted({op for ops in STATE_OPCODES.values() for op in ops})


def _rfcomm_commands():
    from repro.targets.rfcomm import STATE_FRAME_TYPES

    return sorted({kind for kinds in STATE_FRAME_TYPES.values() for kind in kinds})


class TestDataFrameMutatorDraws:
    @given(
        seed=_seeds,
        commands=st.lists(st.sampled_from(_sdp_commands()), min_size=1, max_size=10),
        handles=st.lists(
            st.integers(min_value=0, max_value=2**32 - 1), max_size=4
        ).map(tuple),
        dictionary=_dictionaries(),
    )
    @settings(max_examples=150, deadline=None)
    def test_sdp(self, seed, commands, handles, dictionary):
        """Handles (live-neighbour randrange pair or fresh), UUID counts
        randint(1, 3), and the shared tail."""
        from repro.targets.base import GuidedPosition
        from repro.targets.sdp import SdpSession, SdpSessionState, _SdpMutator

        rng = random.Random(seed)
        mutator = _SdpMutator(FuzzConfig(), rng, dictionary)
        position = GuidedPosition(
            SdpSessionState.SDP_ATTRIBUTED,
            "Discovery",
            SdpSession(our_cid=0x0B00, target_cid=0x0040, handles=handles),
        )
        twin = random.Random(seed)
        for transaction, command in enumerate(commands, start=0x4001):
            produced = mutator.mutate_wire(position, command, 1).tail
            assert produced == _reference_sdp(
                twin, command, handles, transaction, dictionary
            )
        assert rng.getstate() == twin.getstate()

    @given(
        seed=_seeds,
        commands=st.lists(st.sampled_from(_obex_commands()), min_size=1, max_size=10),
        dictionary=_dictionaries(),
    )
    @settings(max_examples=150, deadline=None)
    def test_obex(self, seed, commands, dictionary):
        """Name length randint(0, 12), name characters randrange(0x20,
        0x7F), body length randint(0, 8), the connection-id coin and
        the shared tail."""
        from repro.targets.base import GuidedPosition
        from repro.targets.obex import ObexChannel, ObexSessionState, _ObexMutator

        rng = random.Random(seed)
        mutator = _ObexMutator(FuzzConfig(), rng, dictionary)
        position = GuidedPosition(
            ObexSessionState.OBEX_CONNECTED, "Session", ObexChannel(0x0D00, 0x0041)
        )
        twin = random.Random(seed)
        for command in commands:
            produced = mutator.mutate_wire(position, command, 1).tail
            assert produced == _reference_obex(twin, command, dictionary)
        assert rng.getstate() == twin.getstate()

    @given(
        seed=_seeds,
        commands=st.lists(
            st.sampled_from(_rfcomm_commands()), min_size=1, max_size=10
        ),
        dictionary=_dictionaries(),
    )
    @settings(max_examples=150, deadline=None)
    def test_rfcomm(self, seed, commands, dictionary):
        """DLCI randrange(0, 64), four UIH payload bytes and the tail."""
        from repro.targets.base import GuidedPosition
        from repro.targets.rfcomm import RfcommChannel, RfcommMuxState, _RfcommMutator

        rng = random.Random(seed)
        mutator = _RfcommMutator(FuzzConfig(), rng, dictionary)
        position = GuidedPosition(
            RfcommMuxState.DATA_OPEN, "Mux", RfcommChannel(0x0090, 0x0042)
        )
        twin = random.Random(seed)
        for command in commands:
            produced = mutator.mutate_wire(position, command, 1).tail
            assert produced == _reference_rfcomm(twin, command, dictionary)
        assert rng.getstate() == twin.getstate()

    @pytest.mark.parametrize("width", [1, 2, 3, 9, 13, 16, 64, 95])
    @given(seed=_seeds)
    @settings(max_examples=50, deadline=None)
    def test_rejection_loop_is_randrange(self, width, seed):
        """The loop every inlined draw uses: first ``getrandbits(k)``
        below *width*, ``k = width.bit_length()`` — randrange(width)."""
        rng, twin = random.Random(seed), random.Random(seed)
        bits = width.bit_length()
        for _ in range(8):
            value = rng.getrandbits(bits)
            while value >= width:
                value = rng.getrandbits(bits)
            assert value == twin.randrange(width)
        assert rng.getstate() == twin.getstate()

    @given(seed=_seeds, count=st.integers(min_value=0, max_value=40))
    @settings(max_examples=100, deadline=None)
    def test_random_bytes_is_getrandbits_8(self, seed, count):
        """One wide draw is *count* ``getrandbits(8)`` draws; zero draws
        nothing."""
        from repro.core.mutation import random_bytes

        rng, twin = random.Random(seed), random.Random(seed)
        assert random_bytes(rng.getrandbits, count) == bytes(
            twin.getrandbits(8) for _ in range(count)
        )
        assert rng.getstate() == twin.getstate()
