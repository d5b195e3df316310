"""Tests for crash triage: replay and trigger minimisation."""

from __future__ import annotations

from repro.core.config import FuzzConfig
from repro.core.triage import (
    replay,
    sent_packets,
    shrink_trigger,
    triage_report,
)
from repro.hci.transport import VirtualLink
from repro.l2cap.constants import CommandCode, Psm
from repro.l2cap.packets import (
    configuration_request,
    connection_request,
    echo_request,
)
from repro.testbed.profiles import D2
from repro.testbed.session import FuzzSession


def _d2_factory():
    device = D2.build(armed=True, zero_latency=True)
    link = VirtualLink(clock=device.clock)
    device.attach_to(link)
    return device, link


def _crashing_sequence():
    """Connect, pad with noise, then the CIDP null-deref trigger."""
    trigger = configuration_request(dcid=0x0999, identifier=9)
    trigger = trigger.replace(garbage=b"\xd2\x3a\x91\x0e")
    return [
        echo_request(b"warmup", identifier=1),
        connection_request(psm=Psm.SDP, scid=0x0070, identifier=2),
        echo_request(b"noise-1", identifier=3),
        echo_request(b"noise-2", identifier=4),
        trigger,
        echo_request(b"never-sent", identifier=5),
    ]


class TestReplay:
    def test_crashing_sequence_reproduces(self):
        outcome = replay(_crashing_sequence(), _d2_factory)
        assert outcome.crashed
        assert outcome.trigger_index == 4
        assert outcome.error_message == "Connection Failed"
        assert outcome.crash_id == "bluedroid-cidp-null-deref"

    def test_benign_sequence_survives(self):
        packets = [echo_request(b"x", identifier=i + 1) for i in range(5)]
        outcome = replay(packets, _d2_factory)
        assert not outcome.crashed
        assert outcome.frames_replayed == 5

    def test_campaign_trace_replays(self):
        """The real thing: a saved campaign trace reproduces its finding."""
        session = FuzzSession(D2, FuzzConfig(max_packets=50_000))
        report = session.run()
        assert report.vulnerability_found
        packets = sent_packets(session.fuzzer.sniffer.trace)
        outcome = replay(packets, _d2_factory)
        assert outcome.crashed
        assert outcome.crash_id == "bluedroid-cidp-null-deref"


class TestMinimize:
    def test_minimal_reproducer_is_connect_plus_trigger(self):
        sequence = _crashing_sequence()
        minimal, _ = shrink_trigger(
            sequence, _d2_factory, replay(sequence, _d2_factory)
        )
        codes = [packet.code for packet in minimal]
        # The noise echoes fall away; the connection (which parks a
        # channel in the config job) and the trigger must remain.
        assert CommandCode.CONNECTION_REQ in codes
        assert CommandCode.CONFIGURATION_REQ in codes
        assert len(minimal) == 2

    def test_minimal_sequence_still_crashes(self):
        sequence = _crashing_sequence()
        minimal, _ = shrink_trigger(
            sequence, _d2_factory, replay(sequence, _d2_factory)
        )
        assert replay(minimal, _d2_factory).crashed

    def test_non_crashing_sequence_rejected(self):
        """Nothing drops out of a sequence that never crashes."""
        packets = [echo_request(b"x", identifier=1), echo_request(b"y", identifier=2)]
        outcome = replay(packets, _d2_factory)
        minimal, kept = shrink_trigger(packets, _d2_factory, outcome)
        assert minimal == packets
        assert kept is outcome and not kept.crashed

    def test_campaign_trace_minimises_to_a_handful(self):
        session = FuzzSession(D2, FuzzConfig(max_packets=50_000))
        session.run()
        packets = sent_packets(session.fuzzer.sniffer.trace)
        minimal, _ = shrink_trigger(
            packets, _d2_factory, replay(packets, _d2_factory)
        )
        assert len(minimal) <= 4  # from ~200 packets down to the essence
        assert replay(minimal, _d2_factory).crashed

    def test_triage_report_renders(self):
        sequence = _crashing_sequence()
        minimal, _ = shrink_trigger(
            sequence, _d2_factory, replay(sequence, _d2_factory)
        )
        outcome = replay(minimal, _d2_factory)
        text = triage_report(minimal, outcome)
        assert "Minimal reproducer" in text
        assert "<== trigger" in text
        assert "bluedroid-cidp-null-deref" in text
