"""Tests for the structured campaign log."""

from __future__ import annotations

import json

from repro.core.fuzz_log import FuzzLog, LogLevel


class TestFuzzLog:
    def test_append_and_len(self):
        log = FuzzLog()
        log.info(0.0, "scan", "started")
        log.info(1.0, "scan", "done")
        assert len(log) == 2

    def test_levels_filtered(self):
        log = FuzzLog()
        log.info(0.0, "scan", "ok")
        log.vulnerability(1.0, "detection", "DoS found")
        vulns = [e for e in log.entries if e.level is LogLevel.VULNERABILITY]
        assert len(vulns) == 1
        assert vulns[0].message == "DoS found"

    def test_detail_kwargs_kept(self):
        log = FuzzLog()
        log.info(0.0, "scan", "scanned", open_psms=["0x1"])
        assert log.entries[0].detail == {"open_psms": ["0x1"]}

    def test_jsonl_round_trips(self):
        log = FuzzLog()
        log.info(0.5, "scan", "m1")
        log.vulnerability(1.5, "detection", "m2", state="OPEN")
        lines = log.to_jsonl().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first == {"t": 0.5, "level": "info", "phase": "scan", "message": "m1"}
        second = json.loads(lines[1])
        assert second["detail"] == {"state": "OPEN"}

    def test_as_dict_omits_empty_detail(self):
        log = FuzzLog()
        log.info(0.0, "p", "m")
        assert "detail" not in log.entries[0].as_dict()
