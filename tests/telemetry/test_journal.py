"""Tests for the append-only event journal and its writers."""

from __future__ import annotations

import json

import pytest

from repro.telemetry import (
    EVENT_SCHEMA_VERSION,
    JournalWriter,
    read_events,
)


class TestJournalWriter:
    def test_envelope_fields(self, tmp_path):
        writer = JournalWriter(tmp_path / "j.jsonl", run_id="r1", worker="w1")
        record = writer.emit("campaign_start", campaign=3, device="D1")
        writer.close()
        assert record["v"] == EVENT_SCHEMA_VERSION
        assert record["seq"] == 0
        assert record["event"] == "campaign_start"
        assert record["run_id"] == "r1"
        assert record["worker"] == "w1"
        assert record["campaign"] == 3
        assert record["device"] == "D1"
        (line,) = (tmp_path / "j.jsonl").read_text().splitlines()
        assert json.loads(line) == record

    def test_sequence_and_timestamps_are_monotonic(self, tmp_path):
        writer = JournalWriter(tmp_path / "j.jsonl", run_id="r1", worker="w1")
        records = [writer.emit("tick") for _ in range(50)]
        writer.close()
        assert [record["seq"] for record in records] == list(range(50))
        timestamps = [record["ts"] for record in records]
        assert timestamps == sorted(timestamps)

    def test_payload_cannot_shadow_envelope(self, tmp_path):
        writer = JournalWriter(tmp_path / "j.jsonl", run_id="r1", worker="w1")
        with pytest.raises(ValueError, match="collide"):
            writer.emit("bad", seq=9, run_id="other")

    def test_emit_after_close_raises(self, tmp_path):
        writer = JournalWriter(tmp_path / "j.jsonl", run_id="r1", worker="w1")
        writer.emit("tick")
        writer.close()
        with pytest.raises(ValueError, match="closed"):
            writer.emit("tick")

    def test_writer_without_path_keeps_encoded_lines(self, tmp_path):
        """A worker's shard journal: the lines, encoded once, no file."""
        writer = JournalWriter(None, run_id="r1", worker=4242)
        records = [writer.emit("tick", n=n) for n in range(3)]
        assert writer.lines == [json.dumps(record) for record in records]
        assert [record["seq"] for record in records] == [0, 1, 2]
        assert list(tmp_path.iterdir()) == []

    def test_append_writes_lines_as_they_are(self, tmp_path):
        """Appended worker lines land byte for byte, in order, between
        the writer's own events."""
        worker = JournalWriter(None, run_id="r1", worker=4242)
        worker.emit("campaign_end", campaign=0, covered_states=["OPEN"])
        worker.emit("shard_end", campaigns=1)
        path = tmp_path / "events.jsonl"
        writer = JournalWriter(path, run_id="r1", worker="orchestrator")
        writer.emit("run_start")
        writer.append(worker.lines)
        writer.emit("run_end")
        writer.close()
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[1:3] == worker.lines
        assert [event["event"] for event in read_events(path)] == [
            "run_start",
            "campaign_end",
            "shard_end",
            "run_end",
        ]

    def test_every_event_is_flushed_immediately(self, tmp_path):
        writer = JournalWriter(tmp_path / "j.jsonl", run_id="r1", worker="w1")
        writer.emit("tick", n=1)
        # Readable before close: a killed run keeps every completed line.
        assert read_events(tmp_path / "j.jsonl")[0]["n"] == 1
        writer.close()


class TestReaders:
    def test_read_events_missing_file_is_empty(self, tmp_path):
        assert read_events(tmp_path / "absent.jsonl") == []

    def test_torn_trailing_line_is_skipped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        writer = JournalWriter(path, run_id="r1", worker="w1")
        writer.emit("tick", n=1)
        writer.emit("tick", n=2)
        writer.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"v": 1, "seq": 2, "eve')  # killed mid-write
        events = read_events(path)
        assert [event["n"] for event in events] == [1, 2]

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        lines = [json.dumps({"seq": i, "event": "tick"}) for i in range(5)]
        lines[1] = "{broken"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="corrupt journal line 2"):
            read_events(path)
