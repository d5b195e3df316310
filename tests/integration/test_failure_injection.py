"""Failure injection: fuzzing over a lossy link.

Real radio links drop frames. These tests document how the campaign
behaves when the virtual link loses packets: a lost detection ping looks
exactly like a dead target (the classic false-positive mode of black-box
wireless fuzzing the paper's error-message heuristic inherits), while
modest loss on a disarmed target merely dents the metrics.
"""

from __future__ import annotations

import random

import pytest

from repro.core.config import FuzzConfig
from repro.core.fuzzer import L2Fuzz
from repro.hci.transport import SimClock, VirtualLink
from repro.l2cap.constants import CommandCode
from repro.l2cap.packets import echo_request
from repro.stack.device import DeviceMeta, VirtualDevice
from repro.stack.vendors import BLUEDROID

from tests.conftest import DEFAULT_META, make_services


def _lossy_rig(loss_rate: float, seed: int = 1):
    clock = SimClock()
    device = VirtualDevice(
        meta=DEFAULT_META,
        personality=BLUEDROID,
        services=make_services(),
        clock=clock,
        armed=False,
    )
    link = VirtualLink(
        clock=clock, loss_rate=loss_rate, rng=random.Random(seed)
    )
    device.attach_to(link)
    return device, link


class TestLossyLink:
    def test_lossless_campaign_reports_no_findings(self):
        device, link = _lossy_rig(loss_rate=0.0)
        fuzzer = L2Fuzz(
            link=link, inquiry=device.inquiry, browse=device.services.all_records,
            config=FuzzConfig(max_packets=600),
        )
        report = fuzzer.run()
        assert not report.vulnerability_found

    def test_total_loss_reads_as_dead_target(self):
        """100% loss is indistinguishable from a crashed device: the very
        first ping checkpoint fails and the campaign reports a finding.
        This is the false-positive mode a black-box wireless fuzzer must
        accept (the paper confirms crashes via crash dumps for this
        reason)."""
        device, link = _lossy_rig(loss_rate=1.0)
        fuzzer = L2Fuzz(
            link=link, inquiry=device.inquiry, browse=device.services.all_records,
            config=FuzzConfig(max_packets=5_000),
        )
        report = fuzzer.run()
        assert report.vulnerability_found
        finding = report.first_finding
        assert finding.error_message == "Timeout"
        assert finding.crash_dump is None  # no dump: the tell-tale absence
        assert device.is_alive  # the device never actually died

    def test_mild_loss_only_dents_metrics(self):
        device, link = _lossy_rig(loss_rate=0.02, seed=3)
        fuzzer = L2Fuzz(
            link=link, inquiry=device.inquiry, browse=device.services.all_records,
            config=FuzzConfig(max_packets=1_500),
        )
        report = fuzzer.run()
        # Received count shrinks relative to lossless, but the ratios
        # stay recognisable.
        assert report.efficiency.received < report.efficiency.transmitted
        assert 0.5 < report.efficiency.mp_ratio < 0.85

    def test_dropped_frames_counted_by_link(self):
        _, link = _lossy_rig(loss_rate=1.0)
        with pytest.raises(Exception):
            # A drop means no response; the echo exchange sees nothing.
            frame_payload = echo_request(b"x").encode()
            from repro.hci.packets import AclPacket

            link.send_frame(AclPacket(handle=1, payload=frame_payload).encode())
            if link.stats.frames_dropped:
                raise TimeoutError("dropped as expected")
        assert link.stats.frames_dropped == 1


class TestCliSurvey:
    def test_survey_command_smoke(self, capsys):
        """The survey command renders a Table VI row per device (tiny
        budgets keep this a smoke test; full runs live in the bench)."""
        from repro.cli import main

        assert main(["survey", "--budget", "400", "--d8-budget", "400"]) == 0
        out = capsys.readouterr().out
        assert out.count("vuln=") == 8
        assert "D5" in out and "Crash" in out  # D5 still fires within 400
