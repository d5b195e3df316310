"""Campaign-level tests across every registered fuzz target.

Pins the acceptance criteria of the protocol-agnostic redesign:

* ``repro fuzz --target X`` runs a full campaign for all four targets;
* streaming (``retain_trace=False``) and retained campaigns agree on
  every report metric, per target;
* a fleet over ≥2 protocols produces a merged report with per-target
  coverage maps and cross-protocol-deduped findings;
* corpus write-back and replay carry the target name end to end.
"""

from __future__ import annotations

import pytest

from repro.core.config import FuzzConfig
from repro.core.detection import VulnerabilityClass
from repro.core.fleet import (
    FleetOrchestrator,
    derive_campaign_seed,
    merge_reports,
)
from repro.core.runtime import CampaignSpec, CampaignSummary, FindingSummary
from repro.targets import TARGET_NAMES, make_target
from repro.testbed.profiles import D1, D2, D5, PROFILES_BY_ID
from repro.testbed.session import FuzzSession, run_campaign

ALL_TARGETS = TARGET_NAMES


class TestEveryTargetRunsACampaign:
    @pytest.mark.parametrize("name", ALL_TARGETS)
    def test_full_campaign_covers_the_plan(self, name):
        target = make_target(name)
        report = run_campaign(
            D2, FuzzConfig(max_packets=2500), armed=False, target=name
        )
        assert report.fuzz_target == name
        assert report.state_space == len(target.state_universe())
        assert report.packets_sent >= 2500
        plan_names = {state.value for state in target.state_plan()}
        covered = {state.value for state in report.covered_states}
        assert plan_names <= covered
        assert report.sweeps_completed >= 1

    @pytest.mark.parametrize("name", ALL_TARGETS)
    def test_campaigns_are_deterministic(self, name):
        first = run_campaign(
            D2, FuzzConfig(max_packets=800, seed=11), armed=False, target=name
        )
        second = run_campaign(
            D2, FuzzConfig(max_packets=800, seed=11), armed=False, target=name
        )
        assert first == second

    @pytest.mark.parametrize("name", ALL_TARGETS)
    def test_streaming_and_retained_metrics_agree(self, name):
        retained = run_campaign(
            D1, FuzzConfig(max_packets=1200), armed=False, target=name,
            retain_trace=True,
        )
        streamed = run_campaign(
            D1, FuzzConfig(max_packets=1200), armed=False, target=name,
            retain_trace=False,
        )
        assert retained == streamed  # every metric, field for field


class TestMultiProtocolFleet:
    def _run(self):
        return FleetOrchestrator(
            profiles=[D2, D5],
            strategies=["sequential"],
            targets=["l2cap", "rfcomm"],
            fleet_seed=7,
            base_config=FuzzConfig(max_packets=1200),
        ).run()

    def test_matrix_sweeps_strategies_times_protocols(self):
        report = self._run()
        assert len(report.campaigns) == 4  # 2 profiles x 1 strategy x 2 targets
        assert [spec.target for spec, _ in report.campaigns] == [
            "l2cap", "rfcomm", "l2cap", "rfcomm",
        ]
        assert report.targets == ("l2cap", "rfcomm")

    def test_per_target_coverage_maps(self):
        report = self._run()
        coverage = report.coverage_by_target()
        assert set(coverage) == {"l2cap", "rfcomm"}
        rfcomm_states = {state for state, _ in coverage["rfcomm"]}
        assert rfcomm_states == {"MUX_CLOSED", "CONTROL_OPEN", "DATA_OPEN"}
        l2cap_states = {state for state, _ in coverage["l2cap"]}
        assert "CLOSED" in l2cap_states
        # Protocols never pollute each other's maps.
        assert not rfcomm_states & l2cap_states
        spaces = dict(report.state_spaces)
        assert spaces == {"l2cap": 19, "rfcomm": 3}

    def test_findings_carry_their_protocol(self):
        report = self._run()
        by_target = {finding.target for finding in report.findings}
        # D2's L2CAP bug and both devices' RFCOMM mux overflow.
        assert by_target == {"l2cap", "rfcomm"}

    def test_rendering_includes_per_target_sections(self):
        report = self._run()
        markdown = report.to_markdown()
        assert "## Merged coverage map — l2cap (" in markdown
        assert "## Merged coverage map — rfcomm (3/3)" in markdown
        assert "| protocol |" in markdown
        decoded = report.to_dict()
        assert decoded["targets"] == ["l2cap", "rfcomm"]
        assert {row["target"] for row in decoded["coverage_map"]} == {
            "l2cap",
            "rfcomm",
        }

    def test_worker_count_does_not_change_results(self):
        single = self._run().to_dict()
        double = FleetOrchestrator(
            profiles=[D2, D5],
            strategies=["sequential"],
            targets=["l2cap", "rfcomm"],
            fleet_seed=7,
            workers=2,
            base_config=FuzzConfig(max_packets=1200),
        ).run().to_dict()
        for schedule_key in (
            "workers",
            "simulated_makespan_seconds",
            "campaigns_per_simulated_second",
        ):
            single.pop(schedule_key)
            double.pop(schedule_key)
        assert single == double

    def test_unknown_target_fails_fast(self):
        with pytest.raises(ValueError, match="unknown fuzz target"):
            FleetOrchestrator(
                profiles=[D2], strategies=["sequential"], targets=["zigbee"]
            )
        with pytest.raises(ValueError, match="at least one fuzz target"):
            FleetOrchestrator(
                profiles=[D2], strategies=["sequential"], targets=[]
            )


class TestAutoResetAcrossProtocols:
    def test_rfcomm_auto_reset_reconnects_and_refinds(self):
        """After a reset the guide reopens its channel and hits the bug
        again — the long-term-fuzzing extension works per protocol."""
        session = FuzzSession(
            D5,
            FuzzConfig(max_packets=3000),
            target="rfcomm",
            auto_reset=True,
        )
        report = session.run()
        assert len(report.findings) >= 2  # found it again after reset
        assert session.device.reset_count >= 2
        assert report.packets_sent >= 3000


class TestConfirmedCoverage:
    def test_unanswered_routing_is_not_counted_as_coverage(self):
        """A target that never acknowledges the mux handshake yields no
        RFCOMM coverage — visits are attempts, coverage is confirmed."""
        from repro.core.fuzzer import L2Fuzz
        from repro.hci.transport import SimClock, VirtualLink
        from repro.l2cap.constants import Psm
        from repro.stack.device import DeviceMeta, VirtualDevice
        from repro.stack.services import ServiceDirectory, ServiceRecord
        from repro.stack.vendors import BLUEDROID

        # RFCOMM port open at the L2CAP level, but no mux behind it:
        # SABM/DISC frames are swallowed, never answered.
        clock = SimClock()
        device = VirtualDevice(
            meta=DeviceMeta("AA:BB:CC:00:00:77", "muxless", "widget"),
            personality=BLUEDROID,
            services=ServiceDirectory(
                [
                    ServiceRecord(Psm.SDP, "SDP"),
                    ServiceRecord(Psm.RFCOMM, "Serial Port"),
                ]
            ),
            clock=clock,
        )
        link = VirtualLink(clock=clock)
        device.attach_to(link)
        fuzzer = L2Fuzz(
            link=link,
            inquiry=device.inquiry,
            browse=device.services.all_records,
            config=FuzzConfig(max_packets=400),
            target="rfcomm",
        )
        report = fuzzer.run()
        # Every plan state was *visited* (routing was attempted)...
        assert dict(report.state_visits)
        # ...but none was demonstrably entered.
        assert report.covered_states == frozenset()


def _synthetic_run(index, device_id, trigger, target):
    finding = FindingSummary(
        vulnerability_class=VulnerabilityClass.DOS.value,
        error_message="Connection Failed",
        state="WAIT_CONFIG",
        trigger=trigger,
        sim_time=10.0 + index,
        ping_failed=True,
        crash_dump="",
        target=target,
    )
    summary = CampaignSummary(
        target_name=device_id,
        fuzz_target=target,
        strategy="sequential",
        state_space=19,
        packets_sent=500,
        sweeps_completed=1,
        elapsed_seconds=100.0,
        transmitted=500,
        malformed=300,
        received=400,
        rejections=100,
        covered_states=("CLOSED",),
        state_visits=(),
        transition_visits=(),
        findings=(finding,),
        coverage_samples=(),
    )
    spec = CampaignSpec(
        index=index,
        device_id=device_id,
        strategy="sequential",
        seed=derive_campaign_seed(7, index),
        target=target,
    )
    return spec, summary


class TestCrossProtocolDedup:
    profiles = {"D1": D1, "D2": D2}

    def test_same_protocol_same_trigger_collapses(self):
        runs = [
            _synthetic_run(0, "D1", "UIH(x)", "rfcomm"),
            _synthetic_run(1, "D2", "UIH(x)", "rfcomm"),
        ]
        report = merge_reports(runs, self.profiles, fleet_seed=7, workers=1)
        assert len(report.findings) == 1
        assert report.findings[0].occurrences == 2

    def test_different_protocol_same_trigger_stays_separate(self):
        """The satellite bugfix: protocols never share a crash bucket."""
        runs = [
            _synthetic_run(0, "D1", "UIH(x)", "rfcomm"),
            _synthetic_run(1, "D2", "UIH(x)", "l2cap"),
        ]
        report = merge_reports(runs, self.profiles, fleet_seed=7, workers=1)
        assert len(report.findings) == 2
        assert {finding.target for finding in report.findings} == {
            "l2cap",
            "rfcomm",
        }


class TestCorpusCarriesTheTarget:
    def test_rfcomm_campaign_writes_target_stamped_corpus(self, tmp_path):
        from repro.corpus import open_backend
        from repro.corpus.replay import replay_finding

        corpus = tmp_path / "corpus"
        session = FuzzSession(
            D5,
            FuzzConfig(max_packets=2500),
            target="rfcomm",
            corpus_dir=str(corpus),
        )
        report = session.run()
        assert report.vulnerability_found

        entries = open_backend(corpus).entries()
        assert entries
        assert {entry.target for entry in entries} == {"rfcomm"}

        records = open_backend(corpus).finding_records()
        assert len(records) == 1
        record = records[0]
        assert record.target == "rfcomm"
        assert record.key[0] == "rfcomm"
        # The reproducer replays against a device prepared for RFCOMM.
        outcome = replay_finding(record, PROFILES_BY_ID)
        assert outcome.reproduced
        assert not outcome.regression
        assert outcome.outcome.crash_id == "rfcomm-uih-overflow"

    def test_entry_ids_differ_per_target(self):
        from repro.corpus.entry import content_id

        packets = ("0b00" "0400" "0100" "2f2f",)
        assert content_id(packets, "D2", True, "rfcomm") != content_id(
            packets, "D2", True, "l2cap"
        )
