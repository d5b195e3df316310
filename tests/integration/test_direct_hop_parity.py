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

import hashlib
import random

import pytest

from repro.core.config import FuzzConfig
from repro.core.detection import VulnerabilityDetector
from repro.core.mutation import CoreFieldMutator
from repro.hci.transport import SimClock
from repro.l2cap.constants import CommandCode
from repro.l2cap.packets import (
    COMMAND_SPECS,
    L2capPacket,
    connection_request,
    echo_request,
)
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
        responses = queue.send(connection_request(psm=0x0001, scid=0x60))
        assert responses and all(type(frame) is bytes for frame in seen)
        assert link.stats.frames_sent == 1


def _mixed_answer_trace(direct: bool):
    """Send one packet to a device whose stack answers with two packet
    objects around a response that must cross as bytes; return what
    came back, what the sniffer saw and the link's state."""
    device, link, queue = make_rig(armed=False)
    honest = L2capPacket(CommandCode.ECHO_RSP, 5, tail=b"ab")
    # An exact but explicit length: decodes fine, yet is not its own
    # loopback view, so the device serialises it to an ACL frame.
    explicit = L2capPacket(
        CommandCode.ECHO_RSP,
        6,
        tail=b"cd",
        declared_payload_len=len(honest.encode()) - 4,
    )
    assert explicit.loopback_view() is None
    answer = [honest, explicit, L2capPacket(CommandCode.INFORMATION_RSP, 7)]
    device.engine.handle_l2cap = lambda packet: list(answer)
    if not direct:
        link.attach(device.handle_acl_frame)
    responses = queue.send(echo_request(b"x", identifier=9))
    return (
        [response.encode() for response in responses],
        [(entry.packet.encode(), entry.sim_time) for entry in queue.sniffer.received()],
        link.stats,
        list(link.inbound),
    )


class TestMixedAnswer:
    def test_sniffer_sees_the_remotes_order_as_on_the_bytes_path(self):
        direct = _mixed_answer_trace(direct=True)
        assert direct == _mixed_answer_trace(direct=False)
        sent, seen, stats, inbound = direct
        assert [L2capPacket.decode(wire).identifier for wire in sent] == [5, 6, 7]
        assert [wire for wire, _ in seen] == sent
        assert stats.frames_received == 3 and inbound == []


#: SHA-256 of the sent capture of an armed, auto-reset D2 campaign
#: (seed 11, 1,500 packets): it crashes, resets and goes on fuzzing, so
#: the RNG and identifier streams after every crash are in the digest.
#: Recorded before the mutators drew command batches.
AUTO_RESET_PINS = {
    "l2cap": (
        "b7210634b1ada3ce05cf09e4fd9345e5d88b0e9b66d5900631d0abf2288a283e",
        1502,
        28,
    ),
    "rfcomm": (
        "c9a092b36d9d35133bb0953970f85772ddc6cf42cddc7058adb89f5bce747a47",
        1504,
        2,
    ),
}


@pytest.mark.parametrize("target", sorted(AUTO_RESET_PINS))
def test_auto_reset_campaign_matches_pin(target):
    from repro.testbed.session import FuzzSession

    session = FuzzSession(
        PROFILES_BY_ID["D2"],
        FuzzConfig(seed=11, max_packets=1_500),
        armed=True,
        auto_reset=True,
        retain_trace="sent",
        target=target,
    )
    report = session.run()
    digest = hashlib.sha256()
    for packet in session.fuzzer.sniffer.sent_packets():
        digest.update(packet.encode())
    assert (digest.hexdigest(), report.packets_sent, len(report.findings)) == (
        AUTO_RESET_PINS[target]
    )


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
    assert clone._loopback is None  # nothing primed
    assert packet._loopback is (clone.loopback_view() is not None)
    if facts:
        assert packet._intrinsic == _structural_facts(clone)


class _RecordingQueue:
    """Stands in for the packet queue: records probes, answers nothing."""

    def __init__(self) -> None:
        self.clock = SimClock()
        self.sent: list[L2capPacket] = []
        self._identifier = 0

    def take_identifier(self) -> int:
        self._identifier += 1
        return self._identifier

    def send(self, packet: L2capPacket) -> list:
        self.sent.append(packet)
        return []


class TestPrimedState:
    @pytest.mark.parametrize("code", sorted(COMMAND_SPECS))
    @pytest.mark.parametrize("append_garbage", [True, False])
    def test_mutate_wire_output(self, code, append_garbage):
        mutator = CoreFieldMutator(
            FuzzConfig(append_garbage=append_garbage), random.Random(code)
        )
        for packet in mutator.mutate_wire(None, code, (0, 1, 255)):
            _assert_primed_state_is_fresh(packet, facts=True)

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
            mutator.mutate_wire(None, code, (identifier,))[0]
            for identifier, code in enumerate(sorted(COMMAND_SPECS), start=2)
        ]
        responses = []
        for request in requests:
            responses += device.engine.handle_l2cap(request)
        assert responses
        for response in responses:
            _assert_primed_state_is_fresh(response, facts=False)

    @pytest.mark.parametrize(
        "changes",
        [
            lambda packet: {"fields": {**packet.fields, "psm": 0x0001}},
            lambda packet: {"fields": {**packet.fields, "scid": 0x0041}},
            lambda packet: {"garbage": b""},
            lambda packet: {"identifier": 300},
            lambda packet: {"declared_data_len": 1},
            lambda packet: {"fields": {"psm": 1}},
        ],
    )
    def test_replace_carries_no_primed_state(self, changes):
        mutator = CoreFieldMutator(FuzzConfig(), random.Random(3))
        (packet,) = mutator.mutate_wire(None, CommandCode.CONNECTION_REQ, (9,))
        primed = (packet._wire, packet._intrinsic, packet._loopback)
        assert packet._intrinsic is not None and packet._loopback is True
        changed = packet.replace(**changes(packet))
        assert changed._wire is None
        assert changed._intrinsic is None
        assert changed._loopback is None
        _assert_recomputed(changed)
        assert (packet._wire, packet._intrinsic, packet._loopback) == primed


def _assert_recomputed(packet: L2capPacket) -> None:
    clone = _fresh(packet)
    assert (packet.loopback_view() is None) == (clone.loopback_view() is None)
    assert _structural_facts(packet) == _structural_facts(clone)
