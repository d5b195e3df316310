"""Integration tests for the fleet orchestrator."""

from __future__ import annotations

import json

import pytest

from repro.core.config import FuzzConfig
from repro.core.detection import VulnerabilityClass
from repro.core.fleet import (
    CampaignSpec,
    FleetOrchestrator,
    SummaryRun,
    derive_campaign_seed,
    merge_reports,
    simulated_makespan,
)
from repro.core.runtime import CampaignSummary, FindingSummary
from repro.testbed.profiles import ALL_PROFILES, D1, D2, D3

FLEET_PROFILES = ALL_PROFILES[:4]
FLEET_STRATEGIES = ("breadth_first", "targeted")


def _run_fleet(workers: int = 1, fleet_seed: int = 7):
    return FleetOrchestrator(
        profiles=FLEET_PROFILES,
        strategies=FLEET_STRATEGIES,
        fleet_seed=fleet_seed,
        workers=workers,
        base_config=FuzzConfig(max_packets=1500),
    ).run()


class TestFleetDeterminism:
    def test_merged_report_byte_identical_across_runs(self):
        first = _run_fleet()
        second = _run_fleet()
        assert first.to_json() == second.to_json()
        assert first.to_markdown() == second.to_markdown()

    def test_worker_count_does_not_change_results(self):
        single = _run_fleet(workers=1).to_dict()
        double = _run_fleet(workers=2).to_dict()
        for schedule_key in (
            "workers",
            "simulated_makespan_seconds",
            "campaigns_per_simulated_second",
        ):
            single.pop(schedule_key)
            double.pop(schedule_key)
        assert single == double

    def test_different_fleet_seed_changes_campaign_seeds(self):
        first = _run_fleet(fleet_seed=7)
        second = _run_fleet(fleet_seed=8)
        assert [run.spec.seed for run in first.campaigns] != [
            run.spec.seed for run in second.campaigns
        ]


class TestFleetShape:
    def test_matrix_is_profiles_times_strategies(self):
        report = _run_fleet()
        assert len(report.campaigns) == len(FLEET_PROFILES) * len(FLEET_STRATEGIES)
        observed = [
            (run.spec.device_id, run.spec.strategy) for run in report.campaigns
        ]
        expected = [
            (profile.device_id, strategy)
            for profile in FLEET_PROFILES
            for strategy in FLEET_STRATEGIES
        ]
        assert observed == expected

    def test_campaign_seeds_all_distinct_and_derived(self):
        report = _run_fleet()
        seeds = [run.spec.seed for run in report.campaigns]
        assert len(set(seeds)) == len(seeds)
        for run in report.campaigns:
            assert run.spec.seed == derive_campaign_seed(7, run.spec.index)

    def test_merged_coverage_superset_of_singles(self):
        report = _run_fleet()
        merged = {state for _, state, _ in report.coverage_map}
        for run in report.campaigns:
            assert {state.value for state in run.report.covered_states} <= merged
        assert report.merged_state_count >= report.best_single_coverage

    def test_json_round_trips(self):
        report = _run_fleet()
        decoded = json.loads(report.to_json())
        assert decoded["campaign_count"] == len(report.campaigns)
        assert decoded["fleet_seed"] == 7

    def test_validation(self):
        with pytest.raises(ValueError):
            FleetOrchestrator([], ["sequential"])
        with pytest.raises(ValueError):
            FleetOrchestrator([D2], [])
        with pytest.raises(ValueError):
            FleetOrchestrator([D2], ["sequential"], workers=0)


class TestRegistryInputsOnly:
    """Fleets take registry profiles and strategy names, nothing else."""

    def test_object_strategy_rejected(self):
        from repro.core.strategies import make_strategy

        with pytest.raises(ValueError, match="registry names"):
            FleetOrchestrator([D2], [make_strategy("sequential")])

    def test_unknown_strategy_name_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            FleetOrchestrator([D2], ["sequential", "depth_breadth_first"])

    def test_non_registry_profile_rejected_before_telemetry(self, tmp_path):
        import dataclasses

        custom = dataclasses.replace(D2, name="Custom D2")
        telemetry_dir = tmp_path / "runs"
        with pytest.raises(ValueError, match="not a registry profile"):
            FleetOrchestrator(
                [custom], ["sequential"], telemetry_dir=str(telemetry_dir)
            )
        # Refused before the recorder existed: no run directory at all.
        assert not telemetry_dir.exists()


def _synthetic_run(index, device_id, strategy, trigger, vuln=VulnerabilityClass.DOS):
    finding = FindingSummary(
        vulnerability_class=vuln.value,
        error_message="Connection Failed",
        state="WAIT_CONFIG",
        trigger=trigger,
        sim_time=10.0 + index,
        ping_failed=True,
        crash_dump="",
        target="l2cap",
    )
    summary = CampaignSummary(
        target_name=device_id,
        fuzz_target="l2cap",
        strategy=strategy,
        state_space=19,
        packets_sent=500,
        sweeps_completed=1,
        elapsed_seconds=100.0 + index,
        transmitted=500,
        malformed=300,
        received=400,
        rejections=100,
        covered_states=("CLOSED", "WAIT_CONFIG"),
        state_visits=(),
        transition_visits=(),
        findings=(finding,),
        coverage_samples=(),
    )
    spec = CampaignSpec(
        index=index,
        device_id=device_id,
        strategy=strategy,
        seed=derive_campaign_seed(7, index),
    )
    return SummaryRun(spec, summary)


class TestFindingDedup:
    profiles = {"D1": D1, "D2": D2, "D3": D3}

    def test_same_vendor_class_trigger_collapses(self):
        # D1 and D2 are both Google; identical trigger → one finding.
        runs = [
            _synthetic_run(0, "D1", "breadth_first", "CONFIG_REQ(x)"),
            _synthetic_run(1, "D2", "targeted", "CONFIG_REQ(x)"),
        ]
        report = merge_reports(runs, self.profiles, fleet_seed=7, workers=1)
        assert len(report.findings) == 1
        finding = report.findings[0]
        assert finding.occurrences == 2
        assert finding.device_id == "D1"  # first detection wins
        assert finding.strategy == "breadth_first"

    def test_different_trigger_stays_separate(self):
        runs = [
            _synthetic_run(0, "D1", "breadth_first", "CONFIG_REQ(x)"),
            _synthetic_run(1, "D2", "targeted", "CONFIG_REQ(y)"),
        ]
        report = merge_reports(runs, self.profiles, fleet_seed=7, workers=1)
        assert len(report.findings) == 2

    def test_different_vendor_stays_separate(self):
        # D3 is Samsung: same trigger, different vendor → no dedup.
        runs = [
            _synthetic_run(0, "D1", "breadth_first", "CONFIG_REQ(x)"),
            _synthetic_run(1, "D3", "targeted", "CONFIG_REQ(x)"),
        ]
        report = merge_reports(runs, self.profiles, fleet_seed=7, workers=1)
        assert len(report.findings) == 2
        assert {finding.vendor for finding in report.findings} == {
            "Google",
            "Samsung",
        }

    def test_coverage_map_counts_campaigns(self):
        runs = [
            _synthetic_run(0, "D1", "breadth_first", "a"),
            _synthetic_run(1, "D2", "targeted", "b"),
        ]
        report = merge_reports(runs, self.profiles, fleet_seed=7, workers=1)
        assert report.coverage_map == (
            ("l2cap", "CLOSED", 2),
            ("l2cap", "WAIT_CONFIG", 2),
        )
        assert report.coverage_by_target() == {
            "l2cap": (("CLOSED", 2), ("WAIT_CONFIG", 2))
        }


class TestSimulatedSchedule:
    def test_single_worker_is_total_duration(self):
        assert simulated_makespan([3.0, 2.0, 5.0], 1) == 10.0

    def test_greedy_least_loaded(self):
        # Loads: w0=4, w1=3, then 2 joins w1 (3<4) → makespan 5.
        assert simulated_makespan([4.0, 3.0, 2.0], 2) == 5.0

    def test_more_workers_never_slower(self):
        durations = [5.0, 1.0, 4.0, 2.0, 3.0]
        spans = [simulated_makespan(durations, n) for n in (1, 2, 4, 8)]
        assert spans == sorted(spans, reverse=True)

    def test_validation(self):
        with pytest.raises(ValueError):
            simulated_makespan([1.0], 0)
