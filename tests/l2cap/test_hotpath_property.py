"""Property-based tests for the codec's encode cache (hypothesis).

The single-encode wire path relies on packets caching their wire bytes
with dirty-flag invalidation. These properties pin the contract down:
any mutation after an ``encode()`` must be reflected by the next encode,
round trips stay byte-identical with caching on, and the loopback view
(the decoded-object fast path across the virtual link) is only offered
when it is indistinguishable from re-parsing the wire bytes.
"""

from __future__ import annotations

import copy
import pickle

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.detection  # noqa: F401  (makes the probe templates)
import repro.stack.engine  # noqa: F401  (makes the response templates)
from repro.errors import PacketEncodeError
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


def _clone(packet: L2capPacket) -> L2capPacket:
    """A fresh, never-encoded packet with identical content."""
    return L2capPacket(
        packet.code,
        packet.identifier,
        dict(packet.fields),
        tail=packet.tail,
        garbage=packet.garbage,
        header_cid=packet.header_cid,
        declared_payload_len=packet.declared_payload_len,
        declared_data_len=packet.declared_data_len,
        fill_defaults=False,
    )


class TestEncodeCache:
    @given(_packet_strategy())
    @settings(max_examples=200)
    def test_second_encode_returns_same_bytes(self, packet):
        assert packet.encode() == packet.encode()
        assert packet.wire_length == len(packet.encode())

    @given(_packet_strategy(), st.binary(min_size=1, max_size=8))
    @settings(max_examples=200)
    def test_tail_mutation_after_encode_is_reflected(self, packet, extra):
        packet.encode()
        packet.tail = packet.tail + extra
        assert packet.encode() == _clone(packet).encode()
        assert packet.wire_length == len(packet.encode())

    @given(_packet_strategy(), st.binary(min_size=1, max_size=8))
    @settings(max_examples=200)
    def test_garbage_mutation_after_encode_is_reflected(self, packet, extra):
        packet.encode()
        packet.garbage += extra
        assert packet.encode() == _clone(packet).encode()

    @given(_packet_strategy(), st.integers(min_value=0, max_value=255))
    @settings(max_examples=200)
    def test_field_mutation_after_encode_is_reflected(self, packet, value):
        packet.encode()
        for name in packet.field_names():
            packet.fields[name] = value
        assert packet.encode() == _clone(packet).encode()

    @given(_packet_strategy(), st.integers(min_value=0, max_value=255))
    @settings(max_examples=100)
    def test_identifier_mutation_after_encode_is_reflected(self, packet, identifier):
        packet.encode()
        packet.identifier = identifier
        assert packet.encode() == _clone(packet).encode()

    @given(_packet_strategy())
    @settings(max_examples=100)
    def test_code_mutation_after_encode_is_reflected(self, packet):
        packet.encode()
        packet.code = CommandCode.ECHO_REQ
        assert packet.encode() == _clone(packet).encode()

    @given(_packet_strategy(), st.integers(min_value=0, max_value=30))
    @settings(max_examples=100)
    def test_declared_length_mutation_after_encode_is_reflected(self, packet, lie):
        packet.encode()
        packet.declared_data_len = lie
        assert packet.encode() == _clone(packet).encode()

    @given(_packet_strategy())
    @settings(max_examples=100)
    def test_field_dict_operations_invalidate(self, packet):
        packet.encode()
        packet.fields.update({name: 1 for name in packet.field_names()})
        first = packet.encode()
        assert first == _clone(packet).encode()
        packet.fields.clear()
        assert packet.encode() == _clone(packet).encode()

    @given(_packet_strategy())
    @settings(max_examples=100)
    def test_validation_memo_invalidated_with_cache(self, packet):
        # Judge once (memoizes the structural pass), then mutate: the
        # memo must not leak the first verdict into the second.
        frame_violations(packet, signaling_mtu=1 << 30)
        packet.garbage = b"\xff" + packet.garbage
        packet.declared_data_len = 0
        after = frame_violations(packet, signaling_mtu=1 << 30)
        assert after == frame_violations(_clone(packet), signaling_mtu=1 << 30)


def _mutated(draw_mutation: int, packet: L2capPacket) -> L2capPacket:
    """Apply one of several spec-deviating mutations for validation tests."""
    if draw_mutation == 1:
        packet.declared_data_len = 0
    elif draw_mutation == 2:
        packet.code = 0x55
    elif draw_mutation == 3 and packet.field_names():
        del packet.fields[packet.field_names()[0]]
    elif draw_mutation == 4:
        packet.header_cid = 0x0040
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
        expected = not frame_violations(
            packet, signaling_mtu=1 << 30, allocated_cids=allocated
        ).clean
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
        packet.encode()
        packet.code = CommandCode.CONFIGURATION_REQ  # resets spec cache to unset
        clone = pickle.loads(pickle.dumps(packet))
        assert clone == packet
        assert clone.spec is packet.spec
        assert clone.encode() == packet.encode()

    @given(_packet_strategy())
    @settings(max_examples=100)
    def test_deepcopy_detaches_caches_and_ownership(self, packet):
        packet.encode()
        packet.code = CommandCode.CONFIGURATION_REQ
        clone = copy.deepcopy(packet)
        assert clone.spec is packet.spec
        clone.fields["dcid"] = (clone.fields.get("dcid", 0) + 1) & 0xFFFF
        assert clone.encode() != packet.encode()
        # Mutating the copy must not have invalidated the original.
        assert packet.encode() == pickle.loads(pickle.dumps(packet)).encode()


_COPIERS = {
    "pickle": lambda packet: pickle.loads(pickle.dumps(packet)),
    "deepcopy": copy.deepcopy,
    "copy.copy": copy.copy,
    "method": L2capPacket.copy,
}


def _prime(packet: L2capPacket, mtu: int):
    """Fill every codec cache; return what they hold."""
    return (
        packet.encode(),
        packet.loopback_view() is packet,
        structural_reject_reason(packet, mtu),
    )


class TestCopiesOwnTheirFieldMap:
    """Each copy's field map invalidates the copy's caches, never another's.

    The map's back-reference to its packet is weak, so copying re-links
    it: pickle and deepcopy restore through ``__setstate__``, the shallow
    copies build a fresh map.
    """

    @given(
        _packet_strategy(),
        st.sampled_from(sorted(_COPIERS)),
        st.sampled_from([48, 1 << 30]),
    )
    @settings(max_examples=200)
    def test_in_place_field_write_on_copy(self, packet, copier, mtu):
        names = packet.field_names()
        if not names:
            return
        name = names[0]
        spec_default = packet.spec.field(name).default
        # A truncated original: loopback off, a structural reject within
        # the MTU, and the absent field encoded as its default.
        del packet.fields[name]
        original = _prime(packet, mtu)
        wire = packet.__dict__["_wire"]
        clone = _COPIERS[copier](packet)
        assert _prime(clone, mtu) == original

        value = (spec_default + 1) & packet.spec.field(name).max_value
        clone.fields[name] = value
        assert clone.encode() != original[0]
        assert clone.encode() == _clone(clone).encode()
        assert clone.loopback_view() is clone
        assert structural_reject_reason(clone, mtu) == structural_reject_reason(
            _clone(clone), mtu
        )
        assert (clone.loopback_view() is clone) != original[1]
        if original[2] is not RejectReason.SIGNALING_MTU_EXCEEDED:
            assert original[2] is RejectReason.COMMAND_NOT_UNDERSTOOD
            assert structural_reject_reason(clone, mtu) is None

        # The original keeps its (still correct) caches.
        assert packet.__dict__["_wire"] is wire
        assert _prime(packet, mtu) == original
        assert name not in packet.fields


class TestRoundTripWithCaching:
    @given(_packet_strategy())
    @settings(max_examples=200)
    def test_decode_encode_byte_identical(self, packet):
        raw = packet.encode()
        assert L2capPacket.decode(raw).encode() == raw

    @given(_packet_strategy(), st.binary(min_size=1, max_size=6))
    @settings(max_examples=150)
    def test_decoded_packet_mutation_invalidates_primed_cache(self, packet, extra):
        raw = packet.encode()
        decoded = L2capPacket.decode(raw)
        assert decoded.encode() == raw
        decoded.garbage += extra
        assert decoded.encode() == raw + extra

    @given(st.binary(min_size=8, max_size=64))
    @settings(max_examples=200)
    def test_decode_primes_cache_on_arbitrary_bytes(self, raw):
        from repro.errors import PacketDecodeError

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
        packet.declared_data_len = lie
        assert packet.loopback_view() is None

    @given(_packet_strategy())
    @settings(max_examples=100)
    def test_no_loopback_for_missing_fields(self, packet):
        if not packet.field_names():
            return
        del packet.fields[packet.field_names()[0]]
        assert packet.loopback_view() is None

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
        primed = frame.__dict__["_loopback"]
        frame.__dict__["_loopback"] = None
        assert (frame.loopback_view() is frame) == primed
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
    primed = built.__dict__["_loopback"]
    assert (built.loopback_view() is not None) == (reference.loopback_view() is not None)
    built.__dict__["_loopback"] = None
    assert (built.loopback_view() is not None) == primed
    assert _structural_facts(built) == _structural_facts(reference)
    built.__dict__["_intrinsic"] = None
    assert _structural_facts(built) == _structural_facts(reference)


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
        st.one_of(st.sampled_from(list(RejectReason)), _ECHOED_VALUES),
        _IDENTIFIERS,
        st.binary(max_size=8),
    )
    @settings(max_examples=200)
    def test_every_reject_reason(self, reason, identifier, data):
        _assert_same_packet(
            command_reject(reason, identifier, data),
            L2capPacket(CommandCode.COMMAND_REJECT, identifier, {"reason": reason}, tail=data),
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
        assert built.__dict__["_intrinsic"] is None
        assert _structural_facts(built) == ((), True)

    def test_bad_templates_refused(self):
        with pytest.raises(ValueError):
            signal_template(0x55)
        with pytest.raises(KeyError):
            signal_template(CommandCode.ECHO_RSP, {"psm": 1})
        with pytest.raises(ValueError):
            signal_template(CommandCode.CONNECTION_RSP, tail=None)
