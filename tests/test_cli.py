"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core.config import FuzzConfig
from repro.testbed.profiles import D2
from repro.testbed.session import run_campaign


class TestDevices:
    def test_lists_eight_devices(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        for device_id in ("D1", "D2", "D8"):
            assert device_id in out
        assert "bluedroid-cidp-null-deref" in out


class TestScan:
    def test_scan_prints_ports(self, capsys):
        assert main(["scan", "D2"]) == 0
        out = capsys.readouterr().out
        assert "Pixel 3" in out
        assert "0x0001" in out
        assert "open (no pairing)" in out

    def test_scan_is_case_insensitive(self, capsys):
        assert main(["scan", "d5"]) == 0
        assert "Airpods" in capsys.readouterr().out

    def test_unknown_device_exits(self):
        with pytest.raises(SystemExit):
            main(["scan", "D99"])


class TestFuzz:
    def test_armed_fuzz_finds_d2_bug(self, capsys):
        assert main(["fuzz", "D2", "--budget", "50000"]) == 0
        out = capsys.readouterr().out
        assert "DoS" in out
        assert "WAIT_CONFIG" in out

    def test_disarmed_fuzz_returns_zero(self, capsys):
        assert main(["fuzz", "D2", "--budget", "1000", "--disarm"]) == 0
        out = capsys.readouterr().out
        assert "No vulnerability detected." in out

    def test_fuzz_target_flag_runs_each_protocol(self, capsys):
        # D5's RFCOMM mux hides the injected UIH overflow: exit code 0.
        assert main(["fuzz", "D5", "--target", "rfcomm",
                     "--budget", "3000"]) == 0
        out = capsys.readouterr().out
        assert "Protocol: rfcomm" in out
        assert "Crash" in out
        # SDP and OBEX campaigns run end to end (clean servers: exit 1).
        for target, state in (("sdp", "SDP_SEARCHED"), ("obex", "OBEX_CONNECTED")):
            assert main(["fuzz", "D2", "--target", target,
                         "--budget", "1500"]) == 1
            out = capsys.readouterr().out
            assert f"Protocol: {target}" in out
            assert state in out

    def test_clean_device_returns_one(self, capsys):
        assert main(["fuzz", "D4", "--budget", "1500"]) == 1

    def test_save_trace(self, tmp_path, capsys):
        path = tmp_path / "d2.jsonl"
        assert (
            main(["fuzz", "D2", "--budget", "800", "--disarm",
                  "--save-trace", str(path)])
            == 0
        )
        assert path.exists()
        assert len(path.read_text().splitlines()) > 800

    def test_show_log(self, capsys):
        main(["fuzz", "D2", "--budget", "300", "--disarm", "--show-log"])
        out = capsys.readouterr().out
        assert '"phase": "scan"' in out


class TestCompare:
    def test_compare_prints_table7_shape(self, capsys):
        assert main(["compare", "--budget", "4000"]) == 0
        out = capsys.readouterr().out
        for name in ("L2Fuzz", "Defensics", "BFuzz", "BSS"):
            assert name in out
        assert "/19" in out


_FLEET_ARGS = [
    "fleet",
    "--profiles", "2",
    "--strategies", "breadth_first,targeted",
    "--workers", "2",
    "--seed", "7",
    "--budget", "800",
]


class TestFleet:
    def test_markdown_report(self, capsys):
        assert main(_FLEET_ARGS) == 0
        out = capsys.readouterr().out
        assert "# Fleet report (seed 7, 2 worker(s))" in out
        assert "## Merged coverage map" in out
        assert "## Per-strategy efficiency" in out
        assert "breadth_first" in out and "targeted" in out

    def test_json_report_schema(self, capsys):
        assert main(_FLEET_ARGS + ["--json"]) == 0
        decoded = json.loads(capsys.readouterr().out)
        assert set(decoded) == {
            "fleet_seed",
            "workers",
            "campaign_count",
            "total_packets",
            "simulated_makespan_seconds",
            "campaigns_per_simulated_second",
            "targets",
            "merged_state_count",
            "best_single_coverage",
            "coverage_map",
            "state_spaces",
            "findings",
            "quarantined",
            "strategy_table",
            "campaigns",
        }
        assert decoded["fleet_seed"] == 7
        assert decoded["campaign_count"] == 4  # 2 profiles x 2 strategies
        for campaign in decoded["campaigns"]:
            assert {
                "index",
                "device_id",
                "strategy",
                "target",
                "seed",
                "target_name",
                "packets_sent",
                "sweeps_completed",
                "elapsed_seconds",
                "covered_states",
                "state_visits",
                "transition_visits",
                "findings",
                "mutation_efficiency",
            } == set(campaign)

    def test_two_runs_identical(self, capsys):
        main(_FLEET_ARGS + ["--json"])
        first = capsys.readouterr().out
        main(_FLEET_ARGS + ["--json"])
        second = capsys.readouterr().out
        assert first == second

    def test_workers_auto_and_batch(self, capsys):
        main(_FLEET_ARGS + ["--json"])
        reference = json.loads(capsys.readouterr().out)
        args = [
            "fleet",
            "--profiles", "2",
            "--strategies", "breadth_first,targeted",
            "--seed", "7",
            "--budget", "800",
        ]
        assert main(args + ["--workers", "auto", "--batch", "1",
                            "--json"]) == 0
        decoded = json.loads(capsys.readouterr().out)
        # Worker count and shard size must not change the fleet's
        # findings/coverage — only the schedule summary may differ.
        for key in ("workers", "simulated_makespan_seconds",
                    "campaigns_per_simulated_second"):
            reference.pop(key)
            decoded.pop(key)
        assert decoded == reference

    def test_workers_validation(self):
        with pytest.raises(SystemExit, match="--workers"):
            main(["fleet", "--workers", "0", "--budget", "5"])
        with pytest.raises(SystemExit, match="--workers"):
            main(["fleet", "--workers", "many", "--budget", "5"])

    def test_batch_validation(self):
        with pytest.raises(SystemExit, match="batch must be >= 1"):
            main(["fleet", "--batch", "0", "--budget", "5"])

    def test_profiles_by_id(self, capsys):
        assert main(
            ["fleet", "--profiles", "D2,D4", "--budget", "600"]
        ) == 0
        out = capsys.readouterr().out
        assert "D2 (Pixel 3)" in out
        assert "D4 (iPhone 6S)" in out

    def test_output_file(self, tmp_path, capsys):
        path = tmp_path / "fleet.json"
        assert main(
            _FLEET_ARGS + ["--json", "--output", str(path)]
        ) == 0
        assert "written to" in capsys.readouterr().out
        assert json.loads(path.read_text())["fleet_seed"] == 7

    def test_multi_protocol_fleet(self, capsys):
        assert main(
            ["fleet", "--profiles", "D2,D5", "--targets", "l2cap,rfcomm",
             "--budget", "1000"]
        ) == 0
        out = capsys.readouterr().out
        assert "## Merged coverage map — l2cap (" in out
        assert "## Merged coverage map — rfcomm (" in out
        assert "| rfcomm |" in out  # a deduped RFCOMM finding row

    def test_unknown_strategy_exits(self):
        with pytest.raises(SystemExit):
            main(["fleet", "--strategies", "depth_charge"])

    def test_unknown_fleet_target_lists_valid_names(self, capsys):
        with pytest.raises(SystemExit, match="l2cap, rfcomm, sdp, obex"):
            main(["fleet", "--targets", "zigbee"])

    def test_bad_profile_count_exits(self):
        with pytest.raises(SystemExit):
            main(["fleet", "--profiles", "0"])

    def test_unknown_target_state_exits(self):
        with pytest.raises(SystemExit):
            main(["fleet", "--target-state", "WAIT_FOREVER"])

    def test_unroutable_target_state_exits(self):
        # WAIT_CONNECT_RSP is a real state, but initiator-only: the
        # targeted strategy cannot route a slave target into it.
        with pytest.raises(SystemExit, match="no acceptor-side route"):
            main(
                ["fleet", "--strategies", "targeted",
                 "--target-state", "WAIT_CONNECT_RSP"]
            )

    def test_zero_workers_exits(self):
        with pytest.raises(SystemExit, match="--workers"):
            main(["fleet", "--workers", "0"])

    def test_zero_budget_exits(self):
        with pytest.raises(SystemExit, match="budget must be >= 1"):
            main(["fleet", "--budget", "0"])


class TestReplayCommand:
    def _saved_trace(self, tmp_path, disarm=False):
        path = tmp_path / "trace.jsonl"
        argv = ["fuzz", "D2", "--budget", "5000", "--save-trace", str(path)]
        if disarm:
            argv[3] = "800"
            argv.insert(2, "--disarm")
        main(argv)
        return path

    def test_crashing_trace_reproduces(self, tmp_path, capsys):
        path = self._saved_trace(tmp_path)
        assert main(["replay", str(path), "--device", "D2"]) == 0
        out = capsys.readouterr().out
        assert "crash reproduced" in out
        assert "bluedroid-cidp-null-deref" in out

    def test_minimize_prints_triage_report(self, tmp_path, capsys):
        path = self._saved_trace(tmp_path)
        assert main(["replay", str(path), "--device", "D2", "--minimize"]) == 0
        out = capsys.readouterr().out
        assert "Minimal reproducer" in out
        assert "<== trigger" in out

    def test_benign_trace_returns_one(self, tmp_path, capsys):
        path = self._saved_trace(tmp_path, disarm=True)
        assert main(["replay", str(path), "--device", "D2", "--disarm"]) == 1
        assert "no crash" in capsys.readouterr().out

    def test_missing_trace_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read trace"):
            main(["replay", str(tmp_path / "nope.jsonl")])


class TestCorpusCommands:
    @pytest.fixture()
    def corpus_dir(self, tmp_path, capsys):
        root = tmp_path / "corpus"
        main(["fuzz", "D2", "--budget", "5000", "--corpus", str(root)])
        capsys.readouterr()  # drop the fuzz output
        return root

    def test_fuzz_strategy_flag(self, capsys):
        assert (
            main(
                ["fuzz", "D2", "--budget", "800", "--disarm",
                 "--strategy", "coverage_guided"]
            )
            == 0
        )
        assert "State coverage" in capsys.readouterr().out

    def test_fuzz_unknown_strategy_exits(self, capsys):
        # argparse generates the choices from the strategy registry and
        # lists the valid names on a bad value.
        with pytest.raises(SystemExit):
            main(["fuzz", "D2", "--strategy", "depth_charge"])
        err = capsys.readouterr().err
        assert "invalid choice: 'depth_charge'" in err
        assert "sequential" in err and "coverage_guided" in err

    def test_fuzz_unknown_target_exits(self, capsys):
        with pytest.raises(SystemExit):
            main(["fuzz", "D2", "--target", "zigbee"])
        err = capsys.readouterr().err
        assert "invalid choice: 'zigbee'" in err
        assert "l2cap" in err and "obex" in err

    def test_stats(self, corpus_dir, capsys):
        assert main(["corpus", "stats", str(corpus_dir)]) == 0
        out = capsys.readouterr().out
        assert "entries:" in out
        assert "findings: 1 bucket(s)" in out
        assert "bluedroid-cidp-null-deref" in out

    def test_minimize(self, corpus_dir, capsys):
        assert main(["corpus", "minimize", str(corpus_dir)]) == 0
        assert "canonical table" in capsys.readouterr().out
        assert main(["corpus", "stats", str(corpus_dir)]) == 0
        assert "canonical: 0" not in capsys.readouterr().out

    def test_replay_reports_no_regressions(self, corpus_dir, capsys):
        assert main(["corpus", "replay", str(corpus_dir)]) == 0
        out = capsys.readouterr().out
        assert "0 regression(s)" in out
        assert "REGRESSION" not in out

    def test_replay_entries_flag(self, corpus_dir, capsys):
        assert main(["corpus", "replay", str(corpus_dir), "--entries"]) == 0
        assert "entry " in capsys.readouterr().out

    def test_export(self, corpus_dir, tmp_path, capsys):
        out_path = tmp_path / "all.jsonl"
        assert main(
            ["corpus", "export", str(corpus_dir), "--output", str(out_path)]
        ) == 0
        assert out_path.is_file()
        assert json.loads(out_path.read_text().splitlines()[0])["device_id"] == "D2"

    def test_missing_corpus_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="no corpus"):
            main(["corpus", "stats", str(tmp_path / "empty")])

    def test_legacy_layout_refused(self, tmp_path):
        """A legacy JSON-file corpus is refused, never shadowed by a
        fresh empty database, and the refusal names the last commit
        that can import it."""
        legacy = tmp_path / "legacy"
        (legacy / "entries").mkdir(parents=True)
        for command in (["corpus", "stats", str(legacy)],
                        ["fleet", "--profiles", "1", "--corpus", str(legacy)]):
            with pytest.raises(SystemExit, match="2994a58"):
                main(command)
        assert not (legacy / "corpus.sqlite3").exists()

    def test_fleet_corpus_flag(self, tmp_path, capsys):
        root = tmp_path / "fleet-corpus"
        assert main(_FLEET_ARGS + ["--corpus", str(root)]) == 0
        capsys.readouterr()
        assert main(["corpus", "stats", str(root)]) == 0
        assert "coverage:" in capsys.readouterr().out


class TestSequentialRegression:
    """The default strategy must reproduce the seed campaign exactly.

    Golden values were captured from the pre-strategy seed revision:
    the strategy refactor must not move a single field.
    """

    def test_armed_d2_report_field_for_field(self):
        report = run_campaign(D2, FuzzConfig(max_packets=50_000))
        assert report.strategy == "sequential"
        assert report.packets_sent == 226
        assert report.sweeps_completed == 0
        assert report.elapsed_seconds == pytest.approx(112.931076, abs=1e-6)
        assert report.efficiency.transmitted == 226
        assert report.efficiency.malformed == 151
        assert report.efficiency.received == 145
        assert report.efficiency.rejections == 54
        assert sorted(state.value for state in report.covered_states) == [
            "CLOSED",
            "WAIT_CONFIG",
            "WAIT_CONFIG_REQ_RSP",
            "WAIT_CONNECT",
            "WAIT_CREATE",
        ]
        assert len(report.findings) == 1
        finding = report.findings[0]
        assert finding.error_message == "Connection Failed"
        assert finding.state == "WAIT_CONFIG"
        assert finding.trigger == (
            "CONFIGURATION_REQ(id=225, dcid=0xE6EE, flags=0x0000) "
            "garbage=1ca550ece866149dd33236408c0f"
        )

    def test_disarmed_d2_report_field_for_field(self):
        report = run_campaign(
            D2, FuzzConfig(max_packets=2_000), armed=False
        )
        assert report.strategy == "sequential"
        assert report.packets_sent == 2002
        assert report.sweeps_completed == 3
        assert report.elapsed_seconds == pytest.approx(1004.818643, abs=1e-6)
        assert report.efficiency.malformed == 1343
        assert report.efficiency.rejections == 399
        assert len(report.covered_states) == 13
        assert not report.findings

    def test_explicit_sequential_equals_default(self):
        default = run_campaign(D2, FuzzConfig(max_packets=1_000), armed=False)
        explicit = run_campaign(
            D2,
            FuzzConfig(max_packets=1_000),
            armed=False,
            strategy="sequential",
        )
        assert default == explicit


class TestLoggingFlags:
    def test_quiet_suppresses_normal_output(self, capsys):
        assert main(["--quiet", "devices"]) == 0
        assert capsys.readouterr().out == ""

    def test_verbose_routes_library_debug_to_stderr(self, capsys):
        assert main(["--verbose", "devices"]) == 0
        captured = capsys.readouterr()
        assert "D1" in captured.out  # normal output still on stdout

    def test_repeated_main_calls_do_not_duplicate_output(self, capsys):
        main(["devices"])
        first = capsys.readouterr().out
        main(["devices"])
        second = capsys.readouterr().out
        assert first == second
        assert first.count("D1 ") == 1


class TestFleetTelemetry:
    def test_fleet_records_a_run(self, tmp_path, capsys):
        root = tmp_path / "runs"
        assert main([
            "fleet", "--profiles", "1", "--budget", "500",
            "--workers", "2", "--telemetry", str(root),
        ]) == 0
        out = capsys.readouterr().out
        assert "telemetry run " in out
        (run_dir,) = root.iterdir()
        assert (run_dir / "events.jsonl").exists()
        assert (run_dir / "metrics.prom").exists()

    def test_profile_requires_telemetry(self):
        with pytest.raises(SystemExit, match="worker profiling needs telemetry"):
            main(["fleet", "--profiles", "1", "--profile"])


class TestRunsCommands:
    @pytest.fixture()
    def recorded_root(self, tmp_path, capsys):
        root = tmp_path / "runs"
        main([
            "fleet", "--profiles", "1", "--budget", "500",
            "--workers", "2", "--telemetry", str(root),
        ])
        capsys.readouterr()
        return root

    def test_runs_list(self, recorded_root, capsys):
        assert main(["runs", "list", "--root", str(recorded_root)]) == 0
        out = capsys.readouterr().out
        assert "finished" in out
        assert "run id" in out

    def test_runs_list_empty_root(self, tmp_path, capsys):
        assert main(["runs", "list", "--root", str(tmp_path / "none")]) == 0
        assert "no telemetry runs" in capsys.readouterr().out

    def test_runs_show(self, recorded_root, capsys):
        (run_dir,) = recorded_root.iterdir()
        assert main([
            "runs", "show", run_dir.name, "--root", str(recorded_root),
        ]) == 0
        out = capsys.readouterr().out
        assert '"status": "finished"' in out
        assert "| worker |" in out
        assert "metrics.prom" in out

    def test_runs_tail_once(self, recorded_root, capsys):
        (run_dir,) = recorded_root.iterdir()
        assert main([
            "runs", "tail", str(run_dir), "--once",
            "--root", str(recorded_root),
        ]) == 0
        out = capsys.readouterr().out
        assert "[finished]" in out
        assert "campaigns 1/1" in out

    def test_runs_show_unknown_run_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="no recorded run"):
            main(["runs", "show", "nope", "--root", str(tmp_path)])
