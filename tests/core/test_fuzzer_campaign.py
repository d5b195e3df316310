"""End-to-end campaign tests for the L2Fuzz orchestrator."""

from __future__ import annotations

import pytest

from repro.core.config import FuzzConfig
from repro.core.detection import VulnerabilityClass
from repro.core.fuzz_log import LogLevel
from repro.core.fuzzer import L2Fuzz
from repro.l2cap.states import ChannelState
from repro.stack.vulnerabilities import (
    BLUEDROID_CIDP_NULL_DEREF,
    RTKIT_PSM_SHUTDOWN,
)

from tests.conftest import make_rig


def _fuzzer(device, link, config, **kwargs):
    return L2Fuzz(
        link=link,
        inquiry=device.inquiry,
        browse=device.services.all_records,
        config=config,
        dump_probe=lambda: device.crash_dumps,
        **kwargs,
    )


class TestCleanCampaign:
    def test_budget_respected(self):
        device, link, _ = make_rig(armed=False)
        fuzzer = _fuzzer(device, link, FuzzConfig(max_packets=500))
        report = fuzzer.run()
        assert 500 <= report.packets_sent <= 520  # small overshoot per batch
        assert not report.vulnerability_found

    def test_max_sweeps_respected(self):
        device, link, _ = make_rig(armed=False)
        fuzzer = _fuzzer(
            device, link, FuzzConfig(max_packets=100_000, max_sweeps=1)
        )
        report = fuzzer.run()
        assert report.sweeps_completed == 1

    def test_campaign_is_deterministic(self):
        reports = []
        for _ in range(2):
            device, link, _ = make_rig(armed=False)
            fuzzer = _fuzzer(device, link, FuzzConfig(max_packets=800, seed=99))
            reports.append(fuzzer.run())
        assert reports[0].packets_sent == reports[1].packets_sent
        assert (
            reports[0].efficiency.mp_ratio == reports[1].efficiency.mp_ratio
        )
        assert reports[0].covered_states == reports[1].covered_states

    def test_campaign_covers_13_states(self):
        device, link, _ = make_rig(armed=False)
        fuzzer = _fuzzer(device, link, FuzzConfig(max_packets=3000))
        report = fuzzer.run()
        assert len(report.covered_states) == 13

    def test_log_records_phases(self):
        device, link, _ = make_rig(armed=False)
        fuzzer = _fuzzer(device, link, FuzzConfig(max_packets=400))
        fuzzer.run()
        phases = {entry.phase for entry in fuzzer.log.entries}
        assert "scan" in phases
        assert "state-guiding" in phases


class TestVulnerableCampaign:
    def test_cidp_bug_found_in_config_state(self):
        device, link, _ = make_rig(
            vulnerabilities=(BLUEDROID_CIDP_NULL_DEREF,), armed=True
        )
        fuzzer = _fuzzer(device, link, FuzzConfig(max_packets=50_000))
        report = fuzzer.run()
        assert report.vulnerability_found
        finding = report.first_finding
        assert finding.vulnerability_class is VulnerabilityClass.DOS
        assert finding.error_message == "Connection Failed"
        assert finding.state == ChannelState.WAIT_CONFIG.value
        assert finding.crash_dump is not None
        assert "null pointer dereference" in finding.crash_dump

    def test_campaign_stops_on_first_finding(self):
        device, link, _ = make_rig(
            vulnerabilities=(BLUEDROID_CIDP_NULL_DEREF,), armed=True
        )
        fuzzer = _fuzzer(device, link, FuzzConfig(max_packets=50_000))
        report = fuzzer.run()
        assert len(report.findings) == 1
        assert report.packets_sent < 2000  # stopped long before the budget

    def test_silent_crash_detected_via_ping(self):
        device, link, _ = make_rig(
            vulnerabilities=(RTKIT_PSM_SHUTDOWN,), armed=True
        )
        fuzzer = _fuzzer(device, link, FuzzConfig(max_packets=50_000))
        report = fuzzer.run()
        finding = report.first_finding
        assert finding is not None
        assert finding.vulnerability_class is VulnerabilityClass.CRASH
        assert finding.error_message == "Timeout"

    def test_finding_logged_as_vulnerability(self):
        device, link, _ = make_rig(
            vulnerabilities=(BLUEDROID_CIDP_NULL_DEREF,), armed=True
        )
        fuzzer = _fuzzer(device, link, FuzzConfig(max_packets=50_000))
        fuzzer.run()
        vulns = [e for e in fuzzer.log.entries if e.level is LogLevel.VULNERABILITY]
        assert len(vulns) == 1
        assert "DoS" in vulns[0].message


class TestAutoResetExtension:
    """The paper's §V future-work item: long-term fuzzing via resets."""

    def test_campaign_continues_after_reset(self):
        device, link, _ = make_rig(
            vulnerabilities=(BLUEDROID_CIDP_NULL_DEREF,), armed=True
        )
        config = FuzzConfig(max_packets=3000, stop_on_first_finding=False)
        fuzzer = _fuzzer(
            device,
            link,
            config,
            reset_hook=lambda: device.reset(link),
        )
        report = fuzzer.run()
        assert len(report.findings) >= 2  # found it again after reset
        assert device.reset_count >= 2
        assert report.packets_sent >= 3000
