"""Tests for phase 4 — vulnerability detecting."""

from __future__ import annotations

import pytest

from repro.core.detection import (
    Finding,
    VulnerabilityClass,
    VulnerabilityDetector,
    classify_error,
    finding_key,
)
from repro.errors import (
    ConnectionFailedError,
    ConnectionResetTargetError,
    TargetTimeoutError,
)
from repro.l2cap.constants import Psm
from repro.l2cap.packets import connection_request
from repro.stack.vulnerabilities import RTKIT_PSM_SHUTDOWN

from tests.conftest import make_rig


class TestErrorClassification:
    """Paper §III.E: Connection Failed ⇒ DoS; everything else ⇒ crash."""

    def test_connection_failed_is_dos(self):
        assert classify_error(ConnectionFailedError()) is VulnerabilityClass.DOS

    @pytest.mark.parametrize(
        "error_cls",
        [
            ConnectionResetTargetError,
            TargetTimeoutError,
        ],
    )
    def test_other_errors_are_crashes(self, error_cls):
        assert classify_error(error_cls()) is VulnerabilityClass.CRASH


class TestPingTest:
    def test_alive_target_answers(self):
        _, _, queue = make_rig()
        detector = VulnerabilityDetector(queue)
        assert detector.ping_test()

    def test_dead_target_fails_ping(self):
        _, _, queue = make_rig(vulnerabilities=(RTKIT_PSM_SHUTDOWN,))
        with pytest.raises(TargetTimeoutError):
            queue.send(connection_request(psm=0x0300, scid=0x60))
        detector = VulnerabilityDetector(queue)
        assert not detector.ping_test()


class TestDumpProbe:
    def test_no_side_channel_means_none(self):
        _, _, queue = make_rig()
        assert VulnerabilityDetector(queue).fetch_crash_dump() is None

    def test_latest_dump_returned(self):
        _, _, queue = make_rig()
        detector = VulnerabilityDetector(queue, dump_probe=lambda: ["old", "new"])
        assert detector.fetch_crash_dump() == "new"

    def test_empty_dump_list_means_none(self):
        _, _, queue = make_rig()
        detector = VulnerabilityDetector(queue, dump_probe=lambda: [])
        assert detector.fetch_crash_dump() is None


class TestDiagnose:
    def test_silent_crash_diagnosed_end_to_end(self):
        """RTKit-style: device dies silently, ping times out."""
        device, _, queue = make_rig(
            vulnerabilities=(RTKIT_PSM_SHUTDOWN,), armed=True
        )
        detector = VulnerabilityDetector(
            queue, dump_probe=lambda: device.crash_dumps
        )
        trigger = connection_request(psm=0x0300, scid=0x60)
        with pytest.raises(TargetTimeoutError) as excinfo:
            queue.send(trigger)
        finding = detector.diagnose(excinfo.value, "CLOSED", trigger.describe())
        assert finding.vulnerability_class is VulnerabilityClass.CRASH
        assert finding.error_message == "Timeout"
        assert finding.ping_failed
        assert finding.crash_dump is None  # RTKit leaves no dump
        assert "CONNECTION_REQ" in finding.trigger

    def test_finding_records_sim_time(self):
        _, _, queue = make_rig(vulnerabilities=(RTKIT_PSM_SHUTDOWN,), tx_cost=0.5)
        with pytest.raises(TargetTimeoutError):
            queue.send(connection_request(psm=0x0300, scid=0x60))
        detector = VulnerabilityDetector(queue)
        finding = detector.diagnose(ConnectionFailedError(), "OPEN", "pkt")
        assert finding.sim_time >= 0.5
        assert finding.state == "OPEN"


class TestFindingKey:
    """The one shared dedup key for fleet merge and the finding DB."""

    def test_enum_and_string_classes_agree(self):
        assert finding_key("Google", VulnerabilityClass.DOS, "pkt") == (
            "l2cap",
            "Google",
            "DoS",
            "pkt",
        )
        assert finding_key("Google", "DoS", "pkt") == (
            "l2cap",
            "Google",
            "DoS",
            "pkt",
        )

    def test_key_discriminates_each_component(self):
        base = finding_key("Google", "DoS", "pkt")
        assert finding_key("Apple", "DoS", "pkt") != base
        assert finding_key("Google", "Crash", "pkt") != base
        assert finding_key("Google", "DoS", "other") != base
        assert finding_key("Google", "DoS", "pkt", target="rfcomm") != base

    def test_finding_method_matches_helper(self):
        finding = Finding(
            vulnerability_class=VulnerabilityClass.DOS,
            error_message="Connection Failed",
            state="WAIT_CONFIG",
            trigger="CONFIGURATION_REQ(...)",
            sim_time=1.0,
            ping_failed=True,
        )
        assert finding.key("Google") == finding_key(
            "Google", VulnerabilityClass.DOS, "CONFIGURATION_REQ(...)"
        )
