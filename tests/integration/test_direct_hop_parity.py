"""The direct loopback hop is invisible: same campaign as the bytes path.

A device attached with ``device.attach_to(link)`` takes loopback-eligible
packets as objects (``VirtualLink.deliver``); one attached bytes-only
with ``link.attach(device.handle_acl_frame)`` receives every packet as a
raw ACL frame, parses it, and answers in raw frames. Both wirings must
produce the same campaign down to every counter. The packets the hop
relies on carry primed validation state (structural facts, loopback
eligibility); that state must equal what a fresh computation gives and
vanish on any mutation.
"""

from __future__ import annotations

import random

import pytest

from repro.core.config import FuzzConfig
from repro.core.detection import VulnerabilityDetector
from repro.core.mutation import CoreFieldMutator
from repro.hci.transport import SimClock
from repro.l2cap.constants import CommandCode
from repro.l2cap.packets import COMMAND_SPECS, L2capPacket, connection_request
from repro.l2cap.validation import _structural_facts
from repro.testbed.profiles import PROFILES_BY_ID

from tests.conftest import make_rig

CAMPAIGNS = [
    ("D1", "l2cap"),
    ("D2", "l2cap"),
    ("D2", "rfcomm"),
    ("D2", "sdp"),
    ("D2", "obex"),
]


def _campaign(device_id: str, target: str, armed: bool, direct: bool):
    from repro.testbed.session import FuzzSession

    session = FuzzSession(
        profile=PROFILES_BY_ID[device_id],
        config=FuzzConfig(seed=11, max_packets=1_500),
        armed=armed,
        target=target,
    )
    if not direct:
        session.link.attach(session.device.handle_acl_frame)
    report = session.run()
    engine = session.device.engine
    return {
        "report": report,
        "counters": session.fuzzer.sniffer.counters(),
        "link_stats": session.link.stats,
        "transition_hits": dict(engine.transition_hits),
        "state_history": list(engine.state_history),
        "findings": session.fuzzer.findings,
        "crash_dumps": list(session.device.crash_dumps),
        "elapsed": session.clock.now,
    }


class TestDirectVsBytesParity:
    @pytest.mark.parametrize("armed", [False, True], ids=["disarmed", "armed"])
    @pytest.mark.parametrize("device_id,target", CAMPAIGNS)
    def test_campaign_identical(self, device_id, target, armed):
        direct = _campaign(device_id, target, armed, direct=True)
        raw = _campaign(device_id, target, armed, direct=False)
        for key in direct:
            assert direct[key] == raw[key], key
        if not armed:  # an armed run's probes into a dead link never leave
            assert direct["link_stats"].frames_sent == direct["report"].packets_sent

    def test_bytes_only_remote_never_gets_objects(self):
        """A remote attached without a packet handler sees only bytes."""
        device, link, queue = make_rig()
        seen = []

        def bytes_only(frame):
            seen.append(frame)
            return device.handle_acl_frame(frame)

        link.attach(bytes_only)
        responses = queue.exchange(connection_request(psm=0x0001, scid=0x60))
        assert responses and all(type(frame) is bytes for frame in seen)
        assert link.stats.frames_sent == 1


def _fresh(packet: L2capPacket) -> L2capPacket:
    """Same content, no primed or cached state."""
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


def _assert_primed_state_is_fresh(packet: L2capPacket, facts: bool) -> None:
    clone = _fresh(packet)
    assert clone.__dict__.get("_loopback") is None  # nothing primed
    assert packet.__dict__["_loopback"] is (clone.loopback_view() is not None)
    if facts:
        assert packet.__dict__["_intrinsic"] == _structural_facts(clone)


class _RecordingQueue:
    """Stands in for the packet queue: records probes, answers nothing."""

    def __init__(self) -> None:
        self.clock = SimClock()
        self.sent: list[L2capPacket] = []
        self._identifier = 0

    def take_identifier(self) -> int:
        self._identifier += 1
        return self._identifier

    def exchange(self, packet: L2capPacket) -> list:
        self.sent.append(packet)
        return []


class TestPrimedState:
    @pytest.mark.parametrize("code", sorted(COMMAND_SPECS))
    @pytest.mark.parametrize("append_garbage", [True, False])
    def test_mutate_wire_output(self, code, append_garbage):
        mutator = CoreFieldMutator(
            FuzzConfig(append_garbage=append_garbage), random.Random(code)
        )
        for identifier in (0, 1, 255):
            _assert_primed_state_is_fresh(
                mutator.mutate_wire(code, identifier), facts=True
            )

    def test_detection_probes(self):
        queue = _RecordingQueue()
        VulnerabilityDetector(queue).ping_test(b"probe")
        assert [probe.code for probe in queue.sent] == [
            CommandCode.ECHO_REQ,
            CommandCode.INFORMATION_REQ,
        ]
        for probe in queue.sent:
            _assert_primed_state_is_fresh(probe, facts=True)

    def test_engine_responses(self):
        device, _, queue = make_rig(armed=False)
        mutator = CoreFieldMutator(FuzzConfig(), random.Random(5))
        requests = [connection_request(psm=0x0001, scid=0x60)] + [
            mutator.mutate_wire(code, identifier)
            for identifier, code in enumerate(sorted(COMMAND_SPECS), start=2)
        ]
        responses = []
        for request in requests:
            responses += device.engine.handle_l2cap(request)
        assert responses
        for response in responses:
            _assert_primed_state_is_fresh(response, facts=False)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda packet: packet.fields.__setitem__("psm", 0x0001),
            lambda packet: packet.fields.update(scid=0x0041),
            lambda packet: setattr(packet, "garbage", b""),
            lambda packet: setattr(packet, "identifier", 300),
            lambda packet: setattr(packet, "declared_data_len", 1),
            lambda packet: setattr(packet, "fields", {"psm": 1}),
        ],
    )
    def test_field_mutation_drops_primed_state(self, mutate):
        mutator = CoreFieldMutator(FuzzConfig(), random.Random(3))
        packet = mutator.mutate_wire(CommandCode.CONNECTION_REQ, 9)
        assert packet._intrinsic is not None and packet._loopback is True
        mutate(packet)
        assert packet._intrinsic is None
        assert packet._loopback is None
        _assert_recomputed(packet)


def _assert_recomputed(packet: L2capPacket) -> None:
    clone = _fresh(packet)
    assert (packet.loopback_view() is None) == (clone.loopback_view() is None)
    assert _structural_facts(packet) == _structural_facts(clone)
