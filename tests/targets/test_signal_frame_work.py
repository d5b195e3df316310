"""Work counters for the prebuilt signalling frames.

A fixed signalling template (no per-call field, a constant tail) hands
out one shared packet per identifier, so a disarmed stream campaign's
liveness pings, their Information answers, the LE-family answers and
the data-less Command Rejects construct nothing once their identifiers
have been seen. These counters pin that for a fixed D1 and D2 campaign
pair: packet constructions (every constructor ends in
``packets._packet``) and real template builds (a ``SignalTemplate.build``
that constructs) per sent packet, both deterministic for the seeds
(1.089 and 0.327 once the tables are warm). Before the identifier tables
the pair read 1.67 constructions and 0.91 builds per sent packet.

The tables must be invisible: for every fixed template and every
identifier 0..255, the shared packet is the constructor's packet, with
the same bytes, structural facts and loopback verdict.
"""

from __future__ import annotations

import sys

import pytest

from repro.core.config import FuzzConfig
from repro.l2cap import packets
from repro.l2cap.constants import COMMAND_NAME_BY_VALUE
from repro.l2cap.packets import SIGNAL_TEMPLATES, L2capPacket, SignalTemplate
from repro.l2cap.validation import _structural_facts, structural_reject_reason
from repro.testbed.profiles import D1, D2
from repro.testbed.session import FuzzSession

#: Disarmed 2k-packet campaigns, as the stream benchmark runs them.
CAMPAIGNS = ((D1, 101), (D2, 202))

#: Per sent packet, with every identifier table warm.
CONSTRUCTIONS_PER_PACKET = 1.10
BUILDS_PER_PACKET = 0.33


def _run_pair() -> int:
    sent = 0
    for profile, seed in CAMPAIGNS:
        session = FuzzSession(
            profile=profile,
            config=FuzzConfig(seed=seed, max_packets=2_000),
            armed=False,
            zero_latency=True,
            retain_trace=False,
        )
        sent += session.run().packets_sent
    return sent


def test_stream_pair_constructs_within_budget(monkeypatch):
    _run_pair()  # fills the identifier tables the pair uses
    counts = {"packets": 0, "builds": 0}
    build_code = SignalTemplate.build.__code__
    make = packets._packet

    def counted_packet(*parts):
        counts["packets"] += 1
        if sys._getframe(1).f_code is build_code:
            counts["builds"] += 1
        return make(*parts)

    monkeypatch.setattr(packets, "_packet", counted_packet)
    # The mutator's fast path imports the builder by name.
    monkeypatch.setattr("repro.core.mutation._packet", counted_packet)
    sent = _run_pair()

    assert sent >= 4_000
    assert counts["packets"] / sent <= CONSTRUCTIONS_PER_PACKET
    assert counts["builds"] / sent <= BUILDS_PER_PACKET


def _fixed_templates() -> list[SignalTemplate]:
    return [template for template in SIGNAL_TEMPLATES.values() if template.shared is not None]


def _label(template: SignalTemplate) -> str:
    values = "-".join(f"{value:x}" for value in template.fields.values())
    return f"{COMMAND_NAME_BY_VALUE[template.code]}-{values}-{template.tail.hex()}"


def test_fixed_templates_are_the_call_sites_with_constant_frames():
    fixed = _fixed_templates()
    assert len(fixed) >= 10
    for template in SIGNAL_TEMPLATES.values():
        constant = not template.per_call and template.tail is not None
        assert (template.shared is not None) == constant


@pytest.mark.parametrize("template", _fixed_templates(), ids=_label)
def test_shared_packet_is_the_constructor_packet(template):
    for identifier in range(256):
        shared = template.build(identifier)
        assert template.build(identifier) is shared
        reference = L2capPacket(
            template.code, identifier, dict(template.fields), tail=template.tail
        )
        assert shared == reference
        assert list(shared.fields) == list(reference.fields)
        assert shared.encode() == reference.encode()
        assert _structural_facts(shared) == _structural_facts(reference)
        assert (shared.loopback_view() is shared) == (
            reference.loopback_view() is reference
        )
        assert structural_reject_reason(shared, 48) == structural_reject_reason(
            reference, 48
        )


@pytest.mark.parametrize("identifier", [-1, 256, 300, True])
def test_other_identifiers_build_fresh(identifier):
    template = _fixed_templates()[0]
    built = template.build(identifier)
    assert built is not template.build(identifier)
    assert built.identifier is identifier
    assert built == L2capPacket(
        template.code, identifier, dict(template.fields), tail=template.tail
    )
    assert all(key.__class__ is int and 0 <= key <= 0xFF for key in template.shared)
