"""The bytes-level mutation fast path must be invisible.

``mutate_wire`` exists purely for speed: with ``wire_fast_path`` on
(the default), every campaign must remain **byte-identical** — same
wire bytes, same simulated timestamps, same RNG stream, same report —
to the field-object reference path. These tests replay campaigns under
both configurations across all four protocol targets and diff the full
traces, and pin the golden D2 sequential campaign of the seed suite.

On rfcomm, sdp and obex both paths share the mutator's payload builder,
so fast-vs-reference parity cannot catch a builder that changes bytes.
The golden trace pins below can: SHA-256 digests of whole armed D2
campaigns (every frame, both directions, with its simulated time and
its malformed and rejection flags), recorded before the data-frame
mutators, codecs and servers were rewritten to assemble bytes directly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random

import pytest

from repro.core.config import FuzzConfig
from repro.core.mutation import CoreFieldMutator
from repro.l2cap.packets import COMMAND_SPECS, L2capPacket
from repro.testbed.profiles import D1, D2
from repro.testbed.session import FuzzSession, run_campaign

ALL_TARGETS = ("l2cap", "rfcomm", "sdp", "obex")


def _trace_digest(config: FuzzConfig, target: str, armed: bool) -> str:
    session = FuzzSession(
        profile=D2, config=config, armed=armed, target=target
    )
    session.run()
    digest = hashlib.sha256()
    for traced in session.fuzzer.sniffer.trace:
        digest.update(traced.direction.value.encode())
        digest.update(traced.packet.encode())
        digest.update(repr(round(traced.sim_time, 9)).encode())
    return digest.hexdigest()


def _pinned_digest(config: FuzzConfig, target: str, armed: bool) -> str:
    """SHA-256 of a D2 campaign's trace: per entry, direction, wire
    bytes, simulated time and the malformed and rejection flags."""
    session = FuzzSession(profile=D2, config=config, armed=armed, target=target)
    session.run()
    digest = hashlib.sha256()
    for traced in session.fuzzer.sniffer.trace:
        digest.update(traced.direction.value.encode())
        digest.update(traced.packet.encode())
        digest.update(repr(round(traced.sim_time, 9)).encode())
        digest.update(b"M" if traced.malformed else b"-")
        digest.update(b"R" if traced.rejection else b"-")
    return digest.hexdigest()


#: (target, armed) → digest of the 1,500-packet D2 campaign. Armed
#: l2cap and rfcomm campaigns end at their injected bug (226 packets),
#: so rfcomm is pinned disarmed too, for a full 1,500-packet mux run.
GOLDEN_TRACE_PINS = {
    ("l2cap", True): "d438ce60d9d74eb78ee15ba548f7aea8f13839599fd48120e3e07ec3ae138bef",
    ("rfcomm", True): "e37d64940e4c6c3c6692aa7ca82d98439a9067dc5e7a02cdf1b045b5a3e1f1e4",
    ("sdp", True): "cba6c83e3b293f8b933ffaf35b5d7736dc5705a4ebfa96852c7a00d803f96cb9",
    ("obex", True): "34f8bb1ce021dc2ee86143625e9562ffea6529184a0764b3f385e4783ed2500e",
    ("rfcomm", False): "6fd85012ae8198077cee7705ce2ed152649f16042c6941ae29b2ea57e6f2c6fc",
}


class TestGoldenTracePins:
    @pytest.mark.parametrize("wire_fast_path", [True, False], ids=["fast", "reference"])
    @pytest.mark.parametrize(
        "target, armed",
        sorted(GOLDEN_TRACE_PINS),
        ids=lambda value: value if isinstance(value, str) else ("armed" if value else "disarmed"),
    )
    def test_trace_matches_pin(self, target, armed, wire_fast_path):
        config = FuzzConfig(max_packets=1_500, wire_fast_path=wire_fast_path)
        assert _pinned_digest(config, target, armed) == GOLDEN_TRACE_PINS[(target, armed)]


class TestCampaignEquivalence:
    @pytest.mark.parametrize("target", ALL_TARGETS)
    def test_trace_byte_identical_fast_vs_reference(self, target):
        armed = target == "l2cap"
        fast = _trace_digest(FuzzConfig(max_packets=1_500), target, armed)
        reference = _trace_digest(
            FuzzConfig(max_packets=1_500, wire_fast_path=False), target, armed
        )
        assert fast == reference

    def test_reports_equal_fast_vs_reference(self):
        fast = run_campaign(D1, FuzzConfig(max_packets=2_000), armed=False)
        reference = run_campaign(
            D1, FuzzConfig(max_packets=2_000, wire_fast_path=False), armed=False
        )
        assert fast == reference

    def test_golden_d2_sequential_campaign_unchanged(self):
        """The seed suite's 226-packet golden run, fast path enabled."""
        report = run_campaign(D2, FuzzConfig(max_packets=50_000))
        assert report.packets_sent == 226
        assert report.elapsed_seconds == pytest.approx(112.931076, abs=1e-6)
        assert report.efficiency.malformed == 151
        assert report.efficiency.rejections == 54
        assert report.findings[0].trigger == (
            "CONFIGURATION_REQ(id=225, dcid=0xE6EE, flags=0x0000) "
            "garbage=1ca550ece866149dd33236408c0f"
        )


class TestCoreMutatorWirePath:
    @pytest.mark.parametrize("code", sorted(COMMAND_SPECS))
    def test_every_command_matches_object_path(self, code):
        config = FuzzConfig()
        object_path = CoreFieldMutator(config, random.Random(99))
        wire_path = CoreFieldMutator(config, random.Random(99))
        batch = wire_path.mutate_wire(None, code, (1, 77, 255))
        assert batch is not None and len(batch) == 3
        for identifier, produced in zip((1, 77, 255), batch):
            expected = object_path.mutate(None, code, identifier)
            assert produced.encode() == expected.encode()
            assert dict(produced.fields) == dict(expected.fields)
            assert produced.garbage == expected.garbage
        # Both mutators must also have consumed the RNG identically.
        assert object_path.rng.getstate() == wire_path.rng.getstate()

    def test_dictionary_splices_identically(self):
        config = FuzzConfig()
        dictionary = (b"\xde\xad\xbe\xef" * 3, b"\x01\x02")
        object_path = CoreFieldMutator(
            config, random.Random(5), dictionary=dictionary
        )
        wire_path = CoreFieldMutator(
            config, random.Random(5), dictionary=dictionary
        )
        for code in sorted(COMMAND_SPECS):
            for identifier in range(1, 30):
                assert (
                    wire_path.mutate_wire(None, code, (identifier,))[0].encode()
                    == object_path.mutate(None, code, identifier).encode()
                )

    def test_ablation_config_falls_back_to_object_path(self):
        # BFuzz-style dependent-field corruption draws mid-mutation RNG
        # the wire path does not model; it must decline.
        config = FuzzConfig(mutate_core_fields_only=False)
        mutator = CoreFieldMutator(config, random.Random(3))
        assert mutator.mutate_wire(None, next(iter(COMMAND_SPECS)), (1,)) is None

    def test_unknown_code_falls_back(self):
        mutator = CoreFieldMutator(FuzzConfig(), random.Random(3))
        assert mutator.mutate_wire(None, 0xEE, (1,)) is None

    def test_fast_packet_replace_rebuilds(self):
        # A primed packet refuses changes; replace builds a new one that
        # encodes afresh.
        mutator = CoreFieldMutator(FuzzConfig(), random.Random(11))
        (packet,) = mutator.mutate_wire(None, next(iter(COMMAND_SPECS)), (9,))
        before = packet.encode()
        with pytest.raises(AttributeError):
            packet.identifier = 42
        after = packet.replace(identifier=42).encode()
        assert after != before
        assert packet.encode() is before
        assert L2capPacket.decode(after).identifier == 42

    def test_ablation_campaign_still_equivalent(self):
        # With the ablation config, the engine transparently falls back —
        # the campaign must match the reference path bit for bit too.
        base = FuzzConfig(max_packets=800, mutate_core_fields_only=False)
        fast = run_campaign(D1, base, armed=False)
        reference = run_campaign(
            D1,
            dataclasses.replace(base, wire_fast_path=False),
            armed=False,
        )
        assert fast == reference
