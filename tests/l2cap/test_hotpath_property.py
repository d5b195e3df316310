"""Property-based tests for the codec's caches (hypothesis).

The single-encode wire path relies on packets caching their wire bytes,
structural validation facts and loopback verdict, which is sound because
a built packet never changes. These properties pin the contract down:
assigning a packet's attribute raises, a packet changed with
``replace()`` after an ``encode()`` equals a fresh build, every
construction path primes only caches a fresh build would compute, round
trips stay byte-identical with caching on, and the loopback view (the
decoded-object fast path across the virtual link) is only offered when
it is indistinguishable from re-parsing the wire bytes.
"""

from __future__ import annotations

import copy
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.detection  # noqa: F401  (makes the probe templates)
import repro.stack.engine  # noqa: F401  (makes the response templates)
from repro.core.config import FuzzConfig
from repro.core.mutation import CoreFieldMutator
from repro.errors import PacketDecodeError, PacketEncodeError
from repro.l2cap import packets
from repro.l2cap.constants import (
    MAX_L2CAP_PAYLOAD,
    CommandCode,
    ConnectionResult,
    RejectReason,
    SIGNALING_CID,
)
from repro.l2cap.packets import (
    COMMAND_SPECS,
    SIGNAL_TEMPLATES,
    L2capPacket,
    command_reject,
    signal_template,
)
from repro.l2cap.validation import (
    Violation,
    _structural_facts,
    frame_violations,
    is_malformed,
    structural_reject_reason,
)


def _packet_strategy():
    """Spec-conformant packets with random values (like the codec tests)."""

    @st.composite
    def build(draw):
        code = draw(st.sampled_from(sorted(COMMAND_SPECS)))
        spec = COMMAND_SPECS[code]
        fields = {
            field.name: draw(st.integers(min_value=0, max_value=field.max_value))
            for field in spec.fields
        }
        tail = draw(st.binary(max_size=32)) if spec.tail_name else b""
        garbage = draw(st.binary(max_size=16))
        identifier = draw(st.integers(min_value=0, max_value=255))
        return L2capPacket(code, identifier, fields, tail=tail, garbage=garbage)

    return build()


def _field_names(packet: L2capPacket) -> tuple[str, ...]:
    """The data fields *packet*'s command carries, in layout order."""
    return tuple(field.name for field in packet.spec.fields)


def _clone(packet: L2capPacket, **changes) -> L2capPacket:
    """A fresh, never-encoded packet with identical content, and
    *changes* applied."""
    parts = {
        "code": packet.code,
        "identifier": packet.identifier,
        "fields": dict(packet.fields),
        "tail": packet.tail,
        "garbage": packet.garbage,
        "header_cid": packet.header_cid,
        "declared_payload_len": packet.declared_payload_len,
        "declared_data_len": packet.declared_data_len,
    }
    parts.update(changes)
    return L2capPacket(**parts, fill_defaults=False)


def _assert_changed_after_encode(packet: L2capPacket, **changes) -> L2capPacket:
    """Assigning each change raises; ``replace`` after an encode equals a
    fresh build and leaves the original and its cache as they were."""
    wire = packet.encode()
    for name, value in changes.items():
        with pytest.raises(AttributeError):
            setattr(packet, name, value)
    changed = packet.replace(**changes)
    fresh = _clone(packet, **changes)
    assert changed == fresh
    assert changed.encode() == fresh.encode()
    assert changed.wire_length == len(changed.encode())
    assert packet.encode() is wire
    assert packet == _clone(packet)
    return changed


class TestEncodeCache:
    @given(_packet_strategy())
    @settings(max_examples=200)
    def test_second_encode_returns_same_bytes(self, packet):
        assert packet.encode() == packet.encode()
        assert packet.wire_length == len(packet.encode())

    @given(_packet_strategy(), st.binary(min_size=1, max_size=8))
    @settings(max_examples=200)
    def test_tail_change_after_encode(self, packet, extra):
        _assert_changed_after_encode(packet, tail=packet.tail + extra)

    @given(_packet_strategy(), st.binary(min_size=1, max_size=8))
    @settings(max_examples=200)
    def test_garbage_change_after_encode(self, packet, extra):
        _assert_changed_after_encode(packet, garbage=packet.garbage + extra)

    @given(_packet_strategy(), st.integers(min_value=0, max_value=255))
    @settings(max_examples=200)
    def test_field_change_after_encode(self, packet, value):
        fields = dict(packet.fields)
        for name in _field_names(packet):
            fields[name] = value
        _assert_changed_after_encode(packet, fields=fields)

    @given(_packet_strategy(), st.integers(min_value=0, max_value=255))
    @settings(max_examples=100)
    def test_identifier_change_after_encode(self, packet, identifier):
        _assert_changed_after_encode(packet, identifier=identifier)

    @given(_packet_strategy())
    @settings(max_examples=100)
    def test_code_change_after_encode(self, packet):
        changed = _assert_changed_after_encode(packet, code=CommandCode.ECHO_REQ)
        assert changed.spec is COMMAND_SPECS[CommandCode.ECHO_REQ]

    @given(_packet_strategy(), st.integers(min_value=0, max_value=30))
    @settings(max_examples=100)
    def test_declared_length_change_after_encode(self, packet, lie):
        _assert_changed_after_encode(packet, declared_data_len=lie)

    @given(_packet_strategy())
    @settings(max_examples=100)
    def test_field_dict_replacements(self, packet):
        _assert_changed_after_encode(
            packet, fields={name: 1 for name in _field_names(packet)}
        )
        _assert_changed_after_encode(packet, fields={})

    @given(_packet_strategy())
    @settings(max_examples=50)
    def test_every_public_attribute_and_deletion_refused(self, packet):
        before = _clone(packet)
        for name in (*packets._PARTS, "spec", "extra"):
            with pytest.raises(AttributeError):
                setattr(packet, name, 0)
        for name in packets._PARTS:
            with pytest.raises(AttributeError):
                delattr(packet, name)
        assert packet == before
        assert type(packet) is L2capPacket
        assert not hasattr(packet, "__dict__")

    @given(_packet_strategy())
    @settings(max_examples=100)
    def test_validation_memo_is_per_packet(self, packet):
        # Judge once (memoizes the structural pass), then derive a
        # changed packet: the memo must not leak the first verdict into
        # the second, nor the second into the first.
        before = frame_violations(packet, signaling_mtu=1 << 30)
        changed = packet.replace(garbage=b"\xff" + packet.garbage, declared_data_len=0)
        after = frame_violations(changed, signaling_mtu=1 << 30)
        assert after == frame_violations(_clone(changed), signaling_mtu=1 << 30)
        assert frame_violations(packet, signaling_mtu=1 << 30) == before


def _mutated(draw_mutation: int, packet: L2capPacket) -> L2capPacket:
    """Apply one of several spec-deviating mutations for validation tests."""
    if draw_mutation == 1:
        return packet.replace(declared_data_len=0)
    if draw_mutation == 2:
        return packet.replace(code=0x55)
    if draw_mutation == 3 and _field_names(packet):
        first = _field_names(packet)[0]
        return packet.replace(
            fields={name: value for name, value in packet.fields.items() if name != first}
        )
    if draw_mutation == 4:
        return packet.replace(header_cid=0x0040)
    return packet


class TestFastPathsMatchReportBuilders:
    """The allocation-free fast paths must track frame_violations."""

    @given(
        _packet_strategy(),
        st.integers(min_value=0, max_value=4),
        st.sets(st.integers(min_value=0x40, max_value=0x45)),
    )
    @settings(max_examples=250)
    def test_is_malformed_equals_report_cleanliness(self, packet, mutation, cids):
        packet = _mutated(mutation, packet)
        allocated = frozenset(cids)
        expected = bool(
            frame_violations(
                packet, signaling_mtu=1 << 30, allocated_cids=allocated
            ).violations
        )
        assert is_malformed(packet, allocated_cids=allocated) == expected

    @given(
        _packet_strategy(),
        st.integers(min_value=0, max_value=4),
        st.sampled_from([48, 672, 1 << 30]),
    )
    @settings(max_examples=250)
    def test_structural_reject_matches_report_mapping(self, packet, mutation, mtu):
        packet = _mutated(mutation, packet)
        if packet.header_cid != SIGNALING_CID:
            return  # the engine routes data frames before this check
        report = frame_violations(packet, signaling_mtu=mtu)
        if report.has(Violation.MTU_EXCEEDED):
            expected = RejectReason.SIGNALING_MTU_EXCEEDED
        elif (
            report.has(Violation.UNKNOWN_CODE)
            or report.has(Violation.LENGTH_MISMATCH)
            or report.has(Violation.TRUNCATED_FIELDS)
        ):
            expected = RejectReason.COMMAND_NOT_UNDERSTOOD
        else:
            expected = None
        assert structural_reject_reason(packet, mtu) == expected


class TestSerialisationDropsCaches:
    @given(_packet_strategy())
    @settings(max_examples=100)
    def test_pickle_round_trip_preserves_behaviour(self, packet):
        packet = packet.replace(code=CommandCode.CONFIGURATION_REQ)
        packet.encode()
        clone = pickle.loads(pickle.dumps(packet))
        assert clone == packet
        assert clone.spec is packet.spec
        assert clone._wire is None
        assert clone.encode() == packet.encode()

    @given(_packet_strategy())
    @settings(max_examples=100)
    def test_deepcopy_is_an_independent_equal_value(self, packet):
        packet = packet.replace(code=CommandCode.CONFIGURATION_REQ)
        wire = packet.encode()
        clone = copy.deepcopy(packet)
        assert clone == packet and clone is not packet
        assert clone.fields is not packet.fields
        assert clone.spec is packet.spec
        assert clone._wire is None
        assert clone.encode() == wire
        assert packet._wire is wire


_COPIERS = {
    "pickle": lambda packet: pickle.loads(pickle.dumps(packet)),
    "deepcopy": copy.deepcopy,
    "copy.copy": copy.copy,
}


def _prime(packet: L2capPacket, mtu: int):
    """Fill every codec cache; return what they hold."""
    return (
        packet.encode(),
        packet.loopback_view() is packet,
        structural_reject_reason(packet, mtu),
    )


class TestCopiesAreIndependentValues:
    """A copy is an equal packet of its own: its own field dict, caches
    that are its own to fill, and nothing shared that either could
    change under the other."""

    @given(
        _packet_strategy(),
        st.sampled_from(sorted(_COPIERS)),
        st.sampled_from([48, 1 << 30]),
    )
    @settings(max_examples=200)
    def test_copies_are_independent_values(self, packet, copier, mtu):
        names = _field_names(packet)
        if not names:
            return
        name = names[0]
        # A truncated original: loopback off, a structural reject within
        # the MTU, and no bytes for the absent field.
        packet = _mutated(3, packet)
        original = _prime(packet, mtu)
        wire = packet._wire
        clone = _COPIERS[copier](packet)
        assert clone == packet and clone is not packet
        assert type(clone) is L2capPacket
        assert clone.fields is not packet.fields
        assert (clone._wire, clone._intrinsic, clone._loopback) == (None, None, None)
        assert _prime(clone, mtu) == original
        with pytest.raises(AttributeError):
            clone.fields = {**clone.fields, name: 0}

        # Completing the copy's fields builds a third packet; neither
        # the copy nor the original sees it.
        value = (packet.spec.field(name).default + 1) & packet.spec.field(name).max_value
        completed = clone.replace(fields={name: value, **clone.fields})
        assert completed.encode() != original[0]
        assert completed.encode() == _clone(completed).encode()
        assert completed.loopback_view() is completed
        assert (completed.loopback_view() is completed) != original[1]
        if original[2] is not RejectReason.SIGNALING_MTU_EXCEEDED:
            assert original[2] is RejectReason.COMMAND_NOT_UNDERSTOOD
            assert structural_reject_reason(completed, mtu) is None
        assert _prime(clone, mtu) == original
        assert packet._wire is wire
        assert _prime(packet, mtu) == original
        assert name not in packet.fields and name not in clone.fields


class TestRoundTripWithCaching:
    @given(_packet_strategy())
    @settings(max_examples=200)
    def test_decode_encode_byte_identical(self, packet):
        raw = packet.encode()
        assert L2capPacket.decode(raw).encode() == raw

    @given(_packet_strategy(), st.binary(min_size=1, max_size=6))
    @settings(max_examples=150)
    def test_decoded_packet_change_leaves_primed_cache(self, packet, extra):
        raw = packet.encode()
        decoded = L2capPacket.decode(raw)
        assert decoded.encode() == raw
        with pytest.raises(AttributeError):
            decoded.garbage += extra
        assert decoded.replace(garbage=decoded.garbage + extra).encode() == raw + extra
        assert decoded.encode() == raw

    @given(st.binary(min_size=8, max_size=64))
    @settings(max_examples=200)
    def test_decode_primes_cache_on_arbitrary_bytes(self, raw):
        try:
            packet = L2capPacket.decode(raw)
        except PacketDecodeError:
            return
        assert packet.encode() == raw
        assert packet.wire_length == len(raw)


class TestLoopbackView:
    @given(_packet_strategy())
    @settings(max_examples=200)
    def test_loopback_view_matches_decode(self, packet):
        """When the fast path offers the object, it equals the re-parse."""
        view = packet.loopback_view()
        decoded = L2capPacket.decode(packet.encode())
        if view is None:
            return
        assert view is packet
        assert decoded.code == packet.code
        assert decoded.identifier == packet.identifier
        assert dict(decoded.fields) == dict(packet.fields)
        assert decoded.tail == packet.tail
        assert decoded.garbage == packet.garbage
        assert decoded.declared_payload_len is None
        assert decoded.declared_data_len is None

    @given(_packet_strategy(), st.integers(min_value=0, max_value=30))
    @settings(max_examples=100)
    def test_no_loopback_for_length_lies(self, packet, lie):
        packet = packet.replace(declared_data_len=lie)
        assert packet.loopback_view() is None

    @given(_packet_strategy())
    @settings(max_examples=100)
    def test_no_loopback_for_missing_fields(self, packet):
        if not _field_names(packet):
            return
        assert _mutated(3, packet).loopback_view() is None

    def test_no_loopback_for_unknown_code(self):
        packet = L2capPacket(0x55, 1, {"a": 1}, fill_defaults=False)
        assert packet.loopback_view() is None

    def test_data_frame_loopback(self):
        frame = L2capPacket(
            0, 0, {}, tail=b"payload", header_cid=0x0040, fill_defaults=False
        )
        assert frame.loopback_view() is frame
        signaling_disguise = L2capPacket(
            CommandCode.ECHO_REQ, 1, header_cid=SIGNALING_CID
        )
        assert signaling_disguise.loopback_view() is signaling_disguise


class TestDataFramePrimedVerdict:
    """``L2capPacket.data_frame`` sets the loopback verdict at build time;
    it must be the one :meth:`L2capPacket.loopback_view` computes, and
    the frame the one the constructor builds."""

    @given(
        st.one_of(
            st.integers(min_value=-2, max_value=0x44),
            st.integers(min_value=0xFFFE, max_value=0x10001),
        ),
        st.one_of(
            st.binary(max_size=16),
            st.integers(
                min_value=MAX_L2CAP_PAYLOAD - 1, max_value=MAX_L2CAP_PAYLOAD + 1
            ).map(bytes),
        ),
    )
    @settings(max_examples=300)
    def test_primed_verdict_equals_computed(self, header_cid, payload):
        frame = L2capPacket.data_frame(header_cid, payload)
        primed = frame._loopback
        unprimed = copy.copy(frame)
        assert unprimed._loopback is None
        assert (unprimed.loopback_view() is unprimed) == primed
        built = L2capPacket(
            code=0,
            identifier=0,
            header_cid=header_cid,
            tail=payload,
            fill_defaults=False,
        )
        assert (built.loopback_view() is built) == primed


#: The call-site templates: the engine's responses, the detector's
#: probes and the codec's Command Reject.
_TEMPLATES = tuple(SIGNAL_TEMPLATES.values())

_IDENTIFIERS = st.one_of(
    st.integers(min_value=0, max_value=255),
    st.integers(min_value=-3, max_value=-1),
    st.integers(min_value=256, max_value=300),
)
#: Echoed field values: in and out of a u16, and int enums.
_ECHOED_VALUES = st.one_of(
    st.integers(min_value=0, max_value=0xFFFF),
    st.integers(min_value=-2, max_value=0x10001),
    st.sampled_from(list(ConnectionResult)),
)


def _echoed_tails(template):
    """Short tails, and tails either side of the payload maximum."""
    return st.one_of(
        st.binary(max_size=16),
        st.integers(min_value=template.room - 1, max_value=template.room + 1).map(bytes),
    )


def _reference(template, identifier, values) -> L2capPacket:
    """The constructor's build of what *template* builds."""
    fields = dict(template.fields)
    fields.update(zip([name for name, _ in template.per_call], values))
    tail = values[-1] if template.tail is None else template.tail
    return L2capPacket(template.code, identifier, fields, tail=tail)


def _encoding(packet):
    try:
        return packet.encode()
    except PacketEncodeError:
        return PacketEncodeError


def _assert_same_packet(built: L2capPacket, reference: L2capPacket) -> None:
    assert built == reference
    assert list(built.fields) == list(reference.fields)
    assert built.describe() == reference.describe()
    assert _encoding(built) == _encoding(reference)
    primed = built._loopback
    assert (built.loopback_view() is not None) == (reference.loopback_view() is not None)
    unprimed = copy.copy(built)
    assert (unprimed.loopback_view() is not None) == primed
    assert _structural_facts(built) == _structural_facts(reference)
    assert _structural_facts(unprimed) == _structural_facts(reference)


class TestSignalTemplatesMatchConstructor:
    """A template-built frame is the frame the constructor builds: same
    bytes, rendering, field order, loopback verdict and structural
    facts, for every call-site template."""

    def test_call_sites_made_their_templates(self):
        codes = {template.code for template in _TEMPLATES}
        assert CommandCode.ECHO_REQ in codes and CommandCode.ECHO_RSP in codes
        assert CommandCode.INFORMATION_REQ in codes
        assert CommandCode.COMMAND_REJECT in codes

    @given(st.data())
    @settings(max_examples=400)
    def test_every_template(self, data):
        template = data.draw(st.sampled_from(_TEMPLATES))
        identifier = data.draw(_IDENTIFIERS)
        values = [data.draw(_ECHOED_VALUES) for _ in template.per_call]
        if template.tail is None:
            values.append(data.draw(_echoed_tails(template)))
        built = template.build(identifier, *values)
        _assert_same_packet(built, _reference(template, identifier, values))

    @given(
        st.sampled_from([*RejectReason, *(int(reason) for reason in RejectReason)]),
        _IDENTIFIERS,
    )
    @settings(max_examples=200)
    def test_every_reject_reason(self, reason, identifier):
        _assert_same_packet(
            command_reject(reason, identifier),
            L2capPacket(CommandCode.COMMAND_REJECT, identifier, {"reason": reason}),
        )


class TestSignalTemplateTable:
    @pytest.fixture(autouse=True)
    def private_table(self, monkeypatch):
        # Templates made here must not join the process-wide table.
        monkeypatch.setattr(packets, "SIGNAL_TEMPLATES", {})

    def test_one_template_per_call_site_key(self):
        first = signal_template(CommandCode.CONNECTION_RSP, {"status": 0, "dcid": 0}, ("scid",))
        again = signal_template(CommandCode.CONNECTION_RSP, {"dcid": 0, "status": 0}, ("scid",))
        assert again is first
        assert len(packets.SIGNAL_TEMPLATES) == 1

    def test_echoed_values_do_not_grow_the_table(self):
        template = signal_template(CommandCode.ECHO_RSP, tail=None)
        for size in range(50):
            template.build(size, bytes(size))
        assert len(packets.SIGNAL_TEMPLATES) == 1

    def test_constant_psm_judged_on_first_use(self):
        template = signal_template(CommandCode.CONNECTION_REQ, {"psm": 0x0002}, ("scid",))
        built = template.build(1, 0x0040)
        assert built._intrinsic is None
        assert _structural_facts(built) == ((), True)

    def test_bad_templates_refused(self):
        with pytest.raises(ValueError):
            signal_template(0x55)
        with pytest.raises(KeyError):
            signal_template(CommandCode.ECHO_RSP, {"psm": 1})
        with pytest.raises(ValueError):
            signal_template(CommandCode.CONNECTION_RSP, tail=None)


def _caches(packet: L2capPacket):
    return (packet._wire, packet._intrinsic, packet._loopback)


def _filled(packet: L2capPacket):
    """What the encode, structural-facts and loopback caches hold once
    filled (an encode that raises reads as the error type)."""
    return (
        _encoding(packet),
        _structural_facts(packet),
        packet.loopback_view() is not None,
    )


@st.composite
def _built_by_every_path(draw):
    """``(path, packet)`` from one of the ways a packet comes to be; a
    decoded packet also carries the bytes it was parsed from."""
    path = draw(
        st.sampled_from(
            [
                "constructor",
                "decode",
                "mutate_wire",
                "template",
                "data_frame",
                "replace",
                *_COPIERS,
            ]
        )
    )
    base = draw(_packet_strategy())
    if draw(st.booleans()):
        base = _mutated(draw(st.integers(min_value=1, max_value=4)), base)
    if path == "constructor":
        return path, base
    if path == "decode":
        try:
            raw = base.encode()
            return path, L2capPacket.decode(raw), raw
        except (PacketEncodeError, PacketDecodeError):
            return path, base
    if path == "mutate_wire":
        # The mutator's bytes-level fast path is the caller.
        mutator = CoreFieldMutator(
            FuzzConfig(append_garbage=draw(st.booleans())),
            random.Random(draw(st.integers(min_value=0, max_value=2**16))),
        )
        identifier = draw(st.integers(min_value=0, max_value=255))
        (packet,) = mutator.mutate_wire(
            None, draw(st.sampled_from(sorted(COMMAND_SPECS))), (identifier,)
        )
        return path, packet
    if path == "template":
        template = draw(st.sampled_from(_TEMPLATES))
        values = [draw(_ECHOED_VALUES) for _ in template.per_call]
        if template.tail is None:
            values.append(draw(_echoed_tails(template)))
        return path, template.build(draw(_IDENTIFIERS), *values)
    if path == "data_frame":
        header_cid = draw(st.integers(min_value=0, max_value=0x80))
        payload = draw(st.binary(max_size=16))
        wire = None
        if draw(st.booleans()):
            wire = L2capPacket(
                0, 0, header_cid=header_cid, tail=payload, fill_defaults=False
            ).encode()
        return path, L2capPacket.data_frame(header_cid, payload, wire)
    # The derived paths start from a packet with every cache filled.
    _filled(base)
    if path == "replace":
        return path, base.replace(garbage=draw(st.binary(max_size=4)))
    return path, _COPIERS[path](base)


class TestEveryConstructionPathPrimesFreshCaches:
    """Whatever a builder primes is what a fresh constructor build of
    the same parts computes, on every way a packet is made."""

    @given(_built_by_every_path())
    @settings(max_examples=500)
    def test_primed_caches_equal_recomputed(self, built):
        path, packet, *parsed = built
        assert type(packet) is L2capPacket, path
        fresh = _clone(packet)
        assert _caches(fresh) == (None, None, None)
        expected = _filled(fresh)
        primed = _caches(packet)
        if parsed:
            # encode() is a function of the parts: a fresh build of a
            # decoded packet's parts encodes to the bytes it was parsed
            # from, a truncated data region included.
            assert expected[0] == parsed[0], path
        if primed[0] is not None:
            assert primed[0] == expected[0], path
        if primed[1] is not None:
            assert primed[1] == expected[1], path
        if primed[2] is not None:
            assert primed[2] == expected[2], path
        assert _filled(packet) == expected, path
        assert packet == fresh
        assert _caches(packet)[0] == expected[0] or expected[0] is PacketEncodeError
