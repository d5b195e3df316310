"""The sent capture: ``retain_trace="sent"`` keeps the sent packets only.

Between streaming (nothing per packet) and the full trace (one
``TracedPacket`` per packet in each direction) sits the level corpus
write-back needs: the transmitted packets in send order. These tests pin
what that level keeps, what it refuses, and that it agrees with the full
trace on everything both serve.
"""

from __future__ import annotations

import gc
import types

import pytest

from repro.analysis.metrics import mp_curve, pr_curve
from repro.analysis.sniffer import SENT_ONLY, PacketSniffer
from repro.analysis.traceio import dump_trace
from repro.core.config import FuzzConfig
from repro.l2cap.constants import CommandCode
from repro.l2cap.packets import L2capPacket, configuration_request, echo_request
from repro.testbed.profiles import D2
from repro.testbed.session import FuzzSession

TARGETS = ("l2cap", "rfcomm", "sdp", "obex")


def _reachable(root) -> list:
    """Every object reachable from *root*, short of classes, modules and
    functions (which lead into the whole interpreter)."""
    seen: set[int] = set()
    stack = [root]
    found = []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(
            obj, (type, types.ModuleType, types.FunctionType)
        ):
            continue
        seen.add(id(obj))
        found.append(obj)
        stack.extend(gc.get_referents(obj))
    return found


def _holds(sniffer, packet) -> bool:
    return any(obj is packet for obj in _reachable(sniffer))


def _campaign(target: str, retain) -> FuzzSession:
    session = FuzzSession(
        D2,
        FuzzConfig(seed=3, max_packets=1_500),
        armed=True,
        retain_trace=retain,
        target=target,
    )
    session.run()
    return session


class TestSentCapture:
    @pytest.mark.parametrize("target", TARGETS)
    def test_holds_exactly_the_transmitted_packets(self, target):
        sniffer = _campaign(target, SENT_ONLY).fuzzer.sniffer
        assert sniffer.transmitted_count() > 0
        assert len(sniffer.sent_packets()) == sniffer.transmitted_count()
        assert sniffer.received_count() > 0
        assert sniffer.trace == []

    @pytest.mark.parametrize("target", TARGETS)
    def test_matches_the_full_trace(self, target):
        captured = _campaign(target, SENT_ONLY).fuzzer.sniffer
        traced = _campaign(target, True).fuzzer.sniffer
        assert [packet.encode() for packet in captured.sent_packets()] == [
            packet.encode() for packet in traced.sent_packets()
        ]
        assert [entry.packet for entry in traced.sent()] == traced.sent_packets()
        assert captured.counters() == traced.counters()
        assert mp_curve(captured) == mp_curve(traced)
        assert pr_curve(captured) == pr_curve(traced)

    def test_keeps_no_received_side_object(self):
        sent = echo_request()
        received = L2capPacket(
            CommandCode.CONNECTION_RSP,
            1,
            {"dcid": 0x0040, "scid": 0x0041, "result": 0},
        )
        for retain, keeps_received in ((SENT_ONLY, False), (True, True)):
            sniffer = PacketSniffer(retain_trace=retain)
            assert (sniffer.observe_sent(sent, 0.0) is not None) is keeps_received
            assert (
                sniffer.observe_received(received, 0.1) is not None
            ) is keeps_received
            assert _holds(sniffer, sent)
            # The full trace is the control: the walk does find the
            # received packet when something keeps it.
            assert _holds(sniffer, received) is keeps_received
            # The CID the response allocated is still learned: a
            # request to it is not malformed.
            sniffer.observe_sent(configuration_request(dcid=0x0040), 0.2)
            assert sniffer.malformed_count() == 0

    def test_full_trace_views_refuse(self):
        sniffer = PacketSniffer(retain_trace=SENT_ONLY)
        sniffer.observe_sent(echo_request(), 0.0)
        sniffer.observe_received(L2capPacket(CommandCode.ECHO_RSP, 1), 0.1)
        for view in (sniffer.received, sniffer.sent, lambda: dump_trace(sniffer)):
            with pytest.raises(ValueError, match="retain_trace='sent'"):
                view()

    def test_clear_empties_the_capture(self):
        sniffer = PacketSniffer(retain_trace=SENT_ONLY)
        sniffer.observe_sent(echo_request(), 0.0)
        sniffer.clear()
        assert sniffer.sent_packets() == []
        assert sniffer.transmitted_count() == 0
        sniffer.observe_sent(echo_request(identifier=2), 0.0)
        assert len(sniffer.sent_packets()) == 1

    def test_streaming_sniffer_has_no_sent_packets(self):
        sniffer = PacketSniffer(retain_trace=False)
        sniffer.observe_sent(echo_request(), 0.0)
        with pytest.raises(ValueError, match="retain_trace=False"):
            sniffer.sent_packets()

    @pytest.mark.parametrize("level", ["received", "full", 1, None])
    def test_unknown_level_is_refused(self, level):
        with pytest.raises(ValueError, match="retain_trace must be"):
            PacketSniffer(retain_trace=level)
