"""Bounded-memory streaming sniffer behaviour.

The fleet-scale requirement: a million-packet campaign with
``retain_trace=False`` must complete without per-packet object
retention. These tests drive a campaign-scale packet stream through the
sniffer and pin the memory bound, plus the guard rails around trace
consumers and the ``retain_trace`` plumbing through session and fleet.
"""

from __future__ import annotations

import dataclasses
import tracemalloc

import pytest

from repro.analysis.sniffer import PacketSniffer
from repro.analysis.state_coverage import state_coverage
from repro.analysis.traceio import dump_trace
from repro.core.config import FuzzConfig
from repro.core.fleet import FleetOrchestrator
from repro.l2cap.constants import CommandCode
from repro.l2cap.packets import L2capPacket, echo_request
from repro.testbed.profiles import D1, D2
from repro.testbed.session import FuzzSession


class TestMillionPacketStream:
    def test_million_packet_campaign_stream_is_memory_bounded(self):
        """1,000,000 packets with retain_trace=False: no per-packet state.

        The sniffer sees the same observe stream a million-packet
        campaign produces. Traced memory may grow only by the sampled
        curve series (one point per thousand packets) — far below any
        per-packet retention, which would cost tens of megabytes.
        """
        sniffer = PacketSniffer(retain_trace=False)
        # A small rotation of realistic packets: malformed (garbage) and
        # clean requests, plus periodic responses.
        sent_pool = [
            L2capPacket(CommandCode.ECHO_REQ, 1, garbage=b"\xde\xad"),
            L2capPacket(CommandCode.CONNECTION_REQ, 2, {"psm": 0x0105, "scid": 0x41}),
            echo_request(b"ping", identifier=3),
        ]
        response = L2capPacket(CommandCode.COMMAND_REJECT, 1, {"reason": 0})

        total = 1_000_000
        warmup = 100_000
        tracemalloc.start()
        baseline = None
        for index in range(total):
            sniffer.observe_sent(sent_pool[index % 3], float(index))
            if index % 10 == 0:
                sniffer.observe_received(response, float(index))
            if index == warmup:
                baseline = tracemalloc.get_traced_memory()[0]
        final = tracemalloc.get_traced_memory()[0]
        tracemalloc.stop()

        assert sniffer.transmitted_count() == total
        assert sniffer.trace == []
        # ~900 curve samples of a few dozen bytes; allow generous slack
        # while staying orders of magnitude under per-packet retention.
        assert final - baseline < 1_000_000, (
            f"sniffer grew by {final - baseline} bytes between 100k and 1M "
            "packets — per-packet state is being retained"
        )
        # The streamed series stayed sampled, not per-packet.
        assert len(sniffer.streamed_mp_curve()) <= total // 1000 + 1

    def test_trace_consumers_fail_fast_without_retention(self):
        sniffer = PacketSniffer(retain_trace=False)
        sniffer.observe_sent(echo_request(), 0.0)
        with pytest.raises(ValueError, match="retain_trace"):
            sniffer.sent()
        with pytest.raises(ValueError, match="retain_trace"):
            sniffer.received()
        with pytest.raises(ValueError, match="retain_trace"):
            dump_trace(sniffer)

    def test_streamed_curve_rejects_mismatched_sampling(self):
        sniffer = PacketSniffer(retain_trace=False, sample_every=500)
        sniffer.observe_sent(echo_request(), 0.0)
        with pytest.raises(ValueError, match="sampled every 500"):
            sniffer.streamed_mp_curve(1000)


class TestCampaignParity:
    def _report(self, retain_trace: bool):
        session = FuzzSession(
            profile=D1,
            config=FuzzConfig(seed=23, max_packets=1_500),
            armed=False,
            zero_latency=True,
            retain_trace=retain_trace,
        )
        return session, session.run()

    def test_streaming_campaign_report_identical_to_retained(self):
        retained_session, retained = self._report(True)
        streaming_session, streaming = self._report(False)
        assert retained == streaming
        assert streaming_session.fuzzer.sniffer.trace == []
        assert retained_session.fuzzer.sniffer.trace
        assert state_coverage(streaming_session.fuzzer.sniffer) == set(
            retained.covered_states
        )

    def test_session_rejects_corpus_without_trace(self, tmp_path):
        with pytest.raises(ValueError, match="corpus"):
            FuzzSession(
                profile=D1,
                corpus_dir=str(tmp_path),
                retain_trace=False,
            )


class TestFleetRetention:
    def test_fleet_workers_default_to_streaming(self):
        fleet = FleetOrchestrator([D1, D2], ["sequential"])
        assert fleet.retain_trace is False

    def test_fleet_with_corpus_retains(self, tmp_path):
        fleet = FleetOrchestrator(
            [D1], ["sequential"], corpus_dir=str(tmp_path)
        )
        assert fleet.retain_trace is True

    def test_streaming_fleet_report_matches_retained(self, tmp_path):
        """A plain fleet streams; a fleet on a fresh, empty corpus retains
        (its write-back replays the trace). Only the write-back counts
        may differ between the two reports."""
        config = FuzzConfig(max_packets=600)
        streaming_fleet = FleetOrchestrator(
            [D1], ["sequential"], base_config=config
        )
        retained_fleet = FleetOrchestrator(
            [D1],
            ["sequential"],
            base_config=config,
            corpus_dir=str(tmp_path / "corpus"),
        )
        assert not streaming_fleet.retain_trace
        assert retained_fleet.retain_trace
        streaming, retained = streaming_fleet.run(), retained_fleet.run()
        assert streaming.to_dict() == retained.to_dict()

        def summaries(report):
            return [
                {
                    name: value
                    for name, value in dataclasses.asdict(summary).items()
                    if not name.startswith("corpus_")
                }
                for _, summary in report.campaigns
            ]

        assert summaries(streaming) == summaries(retained)
