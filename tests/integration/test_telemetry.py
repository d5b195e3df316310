"""Fleet telemetry end to end: journal accuracy, parity, crash-safety.

The two contracts pinned here:

* **Accuracy** — the merged journal and metric expositions agree
  *exactly* with the merged :class:`FleetReport` (same packets, same
  findings, campaign for campaign), across the process-pool path and
  the thread-fallback path.
* **Parity** — telemetry never perturbs execution: the same fleet with
  telemetry on and off produces byte-identical reports, and a plain
  campaign's packet stream is untouched.
"""

from __future__ import annotations

import gc
import json

import pytest

from repro.core.config import FuzzConfig
from repro.core.fleet import FleetOrchestrator
from repro.telemetry import (
    EVENTS_FILENAME,
    PROFILES_DIRNAME,
    RunRecorder,
    list_runs,
    read_events,
    read_manifest,
    render_status,
    run_status,
)
from repro.telemetry.recorder import _finalize_abandoned
from repro.testbed.profiles import ALL_PROFILES, PROFILES_BY_ID


def _fleet(tmp_path, telemetry=True, **overrides):
    kwargs = dict(
        profiles=ALL_PROFILES[:2],
        strategies=["sequential", "breadth_first"],
        workers=4,
        base_config=FuzzConfig(max_packets=2_000),
        targets=("l2cap", "sdp"),
        telemetry_dir=str(tmp_path / "runs") if telemetry else None,
    )
    kwargs.update(overrides)
    return FleetOrchestrator(**kwargs)


class TestJournalMatchesReport:
    @pytest.fixture(scope="class")
    def recorded(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("telemetry")
        orchestrator = _fleet(tmp_path)
        with orchestrator:
            report = orchestrator.run()
        run_dir = orchestrator.run_dir
        return report, run_dir, read_events(run_dir / EVENTS_FILENAME)

    def test_campaign_end_counters_match_fleet_report(self, recorded):
        report, _, events = recorded
        ends = {
            event["campaign"]: event
            for event in events
            if event["event"] == "campaign_end"
        }
        assert sorted(ends) == [spec.index for spec, _ in report.campaigns]
        for spec, summary in report.campaigns:
            event = ends[spec.index]
            assert event["packets_sent"] == summary.packets_sent
            assert event["findings"] == len(summary.findings)
            assert event["target"] == spec.target
            assert event["strategy"] == spec.strategy
            assert event["covered_states"] == list(summary.covered_states)
        assert sum(e["packets_sent"] for e in ends.values()) == (
            report.total_packets
        )

    def test_finding_events_match_campaign_findings(self, recorded):
        report, _, events = recorded
        findings = [e for e in events if e["event"] == "finding"]
        expected = sum(len(summary.findings) for _, summary in report.campaigns)
        assert len(findings) == expected
        for event in findings:
            spec, summary = report.campaigns[event["campaign"]]
            finding = summary.findings[event["finding"]]
            assert event["vulnerability_class"] == finding.vulnerability_class
            assert event["trigger"] == finding.trigger
            assert event["vendor"] == PROFILES_BY_ID[spec.device_id].vendor

    def test_correlation_chain_run_to_campaign_to_finding(self, recorded):
        report, run_dir, events = recorded
        run_id = run_dir.name
        assert all(event["run_id"] == run_id for event in events)
        campaign_events = [e for e in events if "campaign" in e]
        assert {e["campaign"] for e in campaign_events} == {
            spec.index for spec, _ in report.campaigns
        }
        # Worker attribution: every worker-side event names its pid.
        worker_ids = {
            e["worker"]
            for e in events
            if e["event"] in ("shard_start", "campaign_end", "shard_end")
        }
        assert worker_ids and all(
            isinstance(worker, int) for worker in worker_ids
        )

    def test_lifecycle_events_bracket_the_run(self, recorded):
        _, _, events = recorded
        kinds = [event["event"] for event in events]
        assert kinds[0] == "run_start"
        assert "run_end" in kinds
        assert kinds[-1] == "run_close"
        assert kinds.count("shard_start") == kinds.count("shard_end")

    def test_manifest_and_expositions_written(self, recorded):
        report, run_dir, _ = recorded
        manifest = read_manifest(run_dir)
        assert manifest["status"] == "finished"
        assert manifest["campaigns"] == len(report.campaigns)
        assert manifest["packets"] == report.total_packets
        assert manifest["findings"] == len(report.findings)
        snapshot = json.loads((run_dir / "metrics.json").read_text())
        sent = sum(
            row["value"]
            for row in snapshot["counters"]["repro_packets_sent_total"]
        )
        assert sent == report.total_packets
        prom = (run_dir / "metrics.prom").read_text()
        assert "# TYPE repro_packets_sent_total counter" in prom
        assert "repro_fleet_runs_total 1" in prom

    def test_run_status_view_agrees(self, recorded):
        report, run_dir, _ = recorded
        status = run_status(run_dir)
        assert status["status"] == "finished"
        assert status["finished_campaigns"] == len(report.campaigns)
        assert status["packets"] == report.total_packets
        assert status["in_flight"] == {}
        rendered = render_status(status)
        assert f"campaigns {len(report.campaigns)}/{len(report.campaigns)}" in (
            rendered
        )
        assert "| worker |" in rendered

    def test_runs_list_sees_the_run(self, recorded):
        _, run_dir, _ = recorded
        (info,) = list_runs(run_dir.parent)
        assert info.run_id == run_dir.name
        assert info.status == "finished"


class TestTelemetryParity:
    def test_fleet_report_byte_identical_with_telemetry_on(self, tmp_path):
        with _fleet(tmp_path, telemetry=False) as bare:
            baseline = bare.run().to_json()
        with _fleet(tmp_path, telemetry=True) as observed:
            recorded = observed.run().to_json()
        assert recorded == baseline

    def test_golden_d2_campaign_unchanged_by_telemetry_import(self):
        # The golden 226-packet D2 campaign must not notice the
        # telemetry layer existing (imported, but not enabled).
        from repro.testbed.profiles import D2
        from repro.testbed.session import FuzzSession

        report = FuzzSession(D2, FuzzConfig(max_packets=50_000)).run()
        assert report.packets_sent == 226
        assert report.vulnerability_found


class TestCrashSafety:
    def test_finalize_abandoned_merges_and_marks_aborted(self, tmp_path):
        recorder = RunRecorder(tmp_path / "runs", workers=2)
        recorder.emit("run_start", campaigns=1)
        run_dir = recorder.run_dir
        # Simulate a kill: drop the recorder without close(); disarm the
        # gc finalizer so the explicit call below is the one under test.
        recorder._finalizer.detach()
        recorder._journal.close()
        del recorder
        _finalize_abandoned(str(run_dir))
        manifest = read_manifest(run_dir)
        assert manifest["status"] == "aborted"
        assert manifest["finished"] is not None
        events = read_events(run_dir / EVENTS_FILENAME)
        assert events[-1]["event"] == "run_abort"
        assert events[-1]["worker"] == "finalizer"

    def test_gc_finalizer_fires_for_leaked_recorder(self, tmp_path):
        recorder = RunRecorder(tmp_path / "runs", workers=1)
        recorder.emit("run_start", campaigns=0)
        run_dir = recorder.run_dir
        del recorder
        gc.collect()
        assert read_manifest(run_dir)["status"] == "aborted"
        kinds = [e["event"] for e in read_events(run_dir / EVENTS_FILENAME)]
        assert kinds[-1] == "run_abort"

    def test_finalize_is_noop_after_clean_close(self, tmp_path):
        recorder = RunRecorder(tmp_path / "runs", workers=1)
        run_dir = recorder.run_dir
        recorder.close()
        _finalize_abandoned(str(run_dir))
        assert read_manifest(run_dir)["status"] == "finished"


class TestWorkerProfiles:
    def test_profile_workers_dumps_cprofile_per_shard(self, tmp_path):
        orchestrator = _fleet(
            tmp_path,
            profiles=ALL_PROFILES[:1],
            strategies=["sequential"],
            targets=("l2cap",),
            workers=2,
            profile_workers=True,
        )
        with orchestrator:
            orchestrator.run()
        dumps = list((orchestrator.run_dir / PROFILES_DIRNAME).glob("*.prof"))
        assert dumps, "no cProfile dumps recorded"
        import pstats

        stats = pstats.Stats(str(dumps[0]))
        assert stats.total_calls > 0

    def test_profile_workers_requires_telemetry(self):
        with pytest.raises(ValueError, match="needs telemetry"):
            FleetOrchestrator(
                profiles=ALL_PROFILES[:1],
                strategies=["sequential"],
                profile_workers=True,
            )


class TestFuzzLogBridge:
    def test_campaign_log_events_reconstruct_log_entries(self, tmp_path):
        from repro.telemetry import log_entries_from_events

        orchestrator = _fleet(
            tmp_path,
            profiles=ALL_PROFILES[:1],
            strategies=["sequential"],
            targets=("l2cap",),
            workers=1,
        )
        with orchestrator:
            report = orchestrator.run()
        events = read_events(orchestrator.run_dir / EVENTS_FILENAME)
        entries = log_entries_from_events(events, campaign=0)
        assert entries, "no campaign_log events bridged"
        phases = {entry.phase for entry in entries}
        assert "scan" in phases
        if report.findings:
            assert any(
                entry.level.value == "vulnerability" for entry in entries
            )
