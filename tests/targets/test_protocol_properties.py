"""Cross-protocol property suite: every registered target, same laws.

For each target the hypothesis properties pin:

* **validity** — every packet the mutator emits stays inside the
  target's structural-validity boundary (the paper's "valid malformed"
  discipline, per protocol);
* **decode∘encode round trip** — the codec hooks re-encode a decoded
  payload to the canonical frame (byte-exact, or an exact prefix for
  protocols whose framing tolerates trailing garbage), idempotently;
* **wire-cache invalidation** — mutating a packet after it has been
  encoded never serves stale cached wire bytes.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import FuzzConfig
from repro.core.state_guiding import GuidedState
from repro.l2cap.jobs import job_of
from repro.l2cap.packets import L2capPacket
from repro.targets import TARGET_NAMES, GuidedPosition, make_target
from repro.targets.obex import ObexChannel
from repro.targets.rfcomm import RfcommChannel
from repro.targets.sdp import SdpSession

_seeds = st.integers(min_value=0, max_value=2**32 - 1)
_target_names = st.sampled_from(TARGET_NAMES)


def _positions(target):
    """A GuidedPosition per plan state, with a synthetic routing context."""
    contexts = {
        "l2cap": lambda state: GuidedPosition(
            state,
            job_of(state).value,
            GuidedState(intended=state, job=job_of(state), channel=None),
        ),
        "rfcomm": lambda state: GuidedPosition(
            state, "Mux", RfcommChannel(our_cid=0x0090, target_cid=0x0040)
        ),
        "sdp": lambda state: GuidedPosition(
            state,
            "Discovery",
            SdpSession(our_cid=0x0B00, target_cid=0x0041, handles=(0x10000,)),
        ),
        "obex": lambda state: GuidedPosition(
            state, "Session", ObexChannel(our_cid=0x0D00, target_cid=0x0042)
        ),
    }[target.name]
    return [contexts(state) for state in target.state_plan()]


def _mutated_payloads(target, seed: int):
    """Every (packet, payload-bytes) the seeded mutator emits, one per
    (state, command) cell of the target's plan."""
    mutator = target.build_mutator(FuzzConfig(seed=seed), random.Random(seed))
    out = []
    identifier = 0
    for position in _positions(target):
        for command in target.commands_for(position):
            identifier = identifier % 0xFF + 1
            packet = mutator.mutate(position, command, identifier)
            payload = packet.encode() if target.name == "l2cap" else bytes(packet.tail)
            out.append((packet, payload))
    return out


class TestMutatorValidity:
    @given(_target_names, _seeds)
    @settings(max_examples=80, deadline=None)
    def test_mutated_payloads_stay_structurally_valid(self, name, seed):
        target = make_target(name)
        payloads = _mutated_payloads(target, seed)
        assert payloads
        for _, payload in payloads:
            assert target.is_structurally_valid(payload)


class TestCodecRoundTrip:
    @given(_target_names, _seeds)
    @settings(max_examples=80, deadline=None)
    def test_decode_encode_round_trips(self, name, seed):
        target = make_target(name)
        for _, payload in _mutated_payloads(target, seed):
            decoded = target.decode_payload(payload)
            canonical = target.encode_payload(decoded)
            # Byte-exact for framings that cover the whole payload;
            # an exact prefix where trailing garbage is legal (RFCOMM).
            assert payload.startswith(canonical)
            if name != "rfcomm":
                assert canonical == payload
            # Idempotence: the canonical form is a fixed point.
            assert target.encode_payload(target.decode_payload(canonical)) == canonical

    @given(_seeds)
    @settings(max_examples=80, deadline=None)
    def test_rfcomm_prefix_is_the_frame_without_garbage(self, seed):
        target = make_target("rfcomm")
        for _, payload in _mutated_payloads(target, seed):
            decoded = target.decode_payload(payload)
            canonical = target.encode_payload(decoded)
            # Whatever follows the canonical frame is the garbage tail.
            assert 0 <= len(payload) - len(canonical) <= FuzzConfig().max_garbage


class TestWireCachePerPacket:
    @given(_target_names, _seeds)
    @settings(max_examples=80, deadline=None)
    def test_replace_after_encode_is_never_stale(self, name, seed):
        target = make_target(name)
        for packet, _ in _mutated_payloads(target, seed):
            first = packet.encode()
            if name == "l2cap":
                changed = packet.replace(garbage=packet.garbage + b"\xa5")
            else:
                changed = packet.replace(tail=packet.tail + b"\xa5")
            second = changed.encode()
            assert second != first
            assert packet.encode() is first
            assert len(second) == len(first) + 1
            # The refreshed encoding is what a cold decode agrees with.
            assert L2capPacket.decode(second).encode() == second

    @given(_target_names, _seeds)
    @settings(max_examples=40, deadline=None)
    def test_wire_packets_survive_an_l2cap_round_trip(self, name, seed):
        """Every target's wire packets ride L2CAP frames loss-free."""
        target = make_target(name)
        for packet, _ in _mutated_payloads(target, seed):
            wire = packet.encode()
            assert L2capPacket.decode(wire).encode() == wire


def test_every_registered_target_is_exercised():
    """The suite covers the full registry (a new target joins for free)."""
    assert set(TARGET_NAMES) == {"l2cap", "rfcomm", "sdp", "obex"}
    for name in TARGET_NAMES:
        assert _mutated_payloads(make_target(name), seed=1)
