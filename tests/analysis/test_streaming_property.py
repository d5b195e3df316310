"""Streaming vs retained-trace analysis agreement (hypothesis).

The analysis layer computes coverage and the Fig. 8/9 series
incrementally at observe time. These properties pin the invariant the
whole refactor rests on: for arbitrary traces, a streaming sniffer
(``retain_trace=False``) and a retained-trace sniffer agree on every
derived metric — coverage, MP/PR curves, counters and the
packets-to-coverage milestone computed by trace replay.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.analysis.metrics import mp_curve, pr_curve
from repro.analysis.sniffer import Direction, PacketSniffer
from repro.analysis.state_coverage import (
    StateCoverageAnalyzer,
    packets_to_coverage,
    state_coverage,
)
from repro.l2cap.constants import CommandCode, ConnectionResult
from repro.l2cap.packets import COMMAND_SPECS, L2capPacket


@st.composite
def _trace_strategy(draw):
    """A plausible mixed-direction trace with occasional handshakes."""
    events = []
    length = draw(st.integers(min_value=0, max_value=60))
    for index in range(length):
        kind = draw(st.integers(min_value=0, max_value=9))
        identifier = draw(st.integers(min_value=1, max_value=8))
        if kind == 0:
            # Connection handshake: request out, success response in.
            scid = draw(st.integers(min_value=0x40, max_value=0x45))
            dcid = draw(st.integers(min_value=0x40, max_value=0x45))
            events.append(
                (
                    Direction.SENT,
                    L2capPacket(
                        CommandCode.CONNECTION_REQ,
                        identifier,
                        {"psm": 0x1001, "scid": scid},
                    ),
                )
            )
            events.append(
                (
                    Direction.RECEIVED,
                    L2capPacket(
                        CommandCode.CONNECTION_RSP,
                        identifier,
                        {
                            "dcid": dcid,
                            "scid": scid,
                            "result": ConnectionResult.SUCCESS,
                            "status": 0,
                        },
                    ),
                )
            )
        elif kind == 1:
            events.append(
                (
                    Direction.RECEIVED,
                    L2capPacket(
                        CommandCode.CONFIGURATION_RSP,
                        identifier,
                        {"scid": draw(st.integers(0x40, 0x45)), "flags": 0, "result": 0},
                    ),
                )
            )
        elif kind == 2:
            events.append(
                (
                    Direction.RECEIVED,
                    L2capPacket(CommandCode.COMMAND_REJECT, identifier, {"reason": 0}),
                )
            )
        else:
            code = draw(st.sampled_from(sorted(COMMAND_SPECS)))
            direction = Direction.SENT if kind < 8 else Direction.RECEIVED
            garbage = draw(st.binary(max_size=6))
            events.append(
                (direction, L2capPacket(code, identifier, garbage=garbage))
            )
    return events


def _observe_all(sniffer: PacketSniffer, events) -> None:
    for index, (direction, packet) in enumerate(events):
        if direction is Direction.SENT:
            sniffer.observe_sent(packet, float(index))
        else:
            sniffer.observe_received(packet, float(index))


def _replay_packets_to_coverage(sniffer: PacketSniffer, target: int) -> int | None:
    """The historical trace-replay oracle for packets-to-coverage."""
    analyzer = StateCoverageAnalyzer()
    sent = 0
    for entry in sniffer.trace:
        if entry.direction is Direction.SENT:
            sent += 1
        analyzer.feed(entry)
        if analyzer.coverage_count >= target:
            return sent
    return None


class TestStreamingAgreesWithRetained:
    @given(_trace_strategy(), st.integers(min_value=1, max_value=9))
    @settings(max_examples=150, deadline=None)
    def test_curves_and_coverage_agree(self, events, sample_every):
        retained = PacketSniffer(retain_trace=True, sample_every=10_000_000)
        streaming = PacketSniffer(retain_trace=False, sample_every=sample_every)
        _observe_all(retained, events)
        _observe_all(streaming, events)

        # Counters.
        assert retained.transmitted_count() == streaming.transmitted_count()
        assert retained.malformed_count() == streaming.malformed_count()
        assert retained.received_count() == streaming.received_count()
        assert retained.rejection_count() == streaming.rejection_count()

        # Coverage: streamed, replayed, and analyzer-replayed all agree.
        assert state_coverage(retained) == state_coverage(streaming)
        assert StateCoverageAnalyzer().analyze(retained) == state_coverage(streaming)

        # Fig. 8/9 series: replay of the retained trace (its own
        # sample_every is unreachable, forcing the replay path) against
        # the streamed series.
        assert mp_curve(retained, sample_every) == mp_curve(streaming, sample_every)
        assert pr_curve(retained, sample_every) == pr_curve(streaming, sample_every)

    @given(_trace_strategy(), st.integers(min_value=1, max_value=20))
    @settings(max_examples=150, deadline=None)
    def test_packets_to_coverage_agrees_with_replay(self, events, target):
        retained = PacketSniffer(retain_trace=True)
        streaming = PacketSniffer(retain_trace=False)
        _observe_all(retained, events)
        _observe_all(streaming, events)
        expected = _replay_packets_to_coverage(retained, target)
        assert packets_to_coverage(streaming, target) == expected
        assert packets_to_coverage(retained, target) == expected

    @given(_trace_strategy())
    @settings(max_examples=50, deadline=None)
    def test_streaming_retains_no_trace(self, events):
        streaming = PacketSniffer(retain_trace=False)
        _observe_all(streaming, events)
        assert streaming.trace == []

    @given(_trace_strategy())
    @settings(max_examples=50, deadline=None)
    def test_clear_resets_streaming_state(self, events):
        sniffer = PacketSniffer(retain_trace=False)
        _observe_all(sniffer, events)
        sniffer.clear()
        fresh = PacketSniffer(retain_trace=False)
        assert state_coverage(sniffer) == state_coverage(fresh)
        assert sniffer.transmitted_count() == 0
        assert sniffer.coverage_unlocks == fresh.coverage_unlocks
        assert packets_to_coverage(sniffer, 2) is None
