"""Tests for the append-only event journal and its segment merge."""

from __future__ import annotations

import json
import multiprocessing
import threading

import pytest

from repro.telemetry import (
    EVENT_SCHEMA_VERSION,
    EVENTS_FILENAME,
    SEGMENTS_DIRNAME,
    JournalWriter,
    merge_segments,
    read_events,
    scan_events,
    shard_journal,
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


class TestMergeSegments:
    def _run_dir(self, tmp_path):
        run_dir = tmp_path / "run"
        (run_dir / SEGMENTS_DIRNAME).mkdir(parents=True)
        return run_dir

    def test_merge_appends_sorted_and_removes_segments(self, tmp_path):
        run_dir = self._run_dir(tmp_path)
        for name, count in (("worker-b.jsonl", 3), ("worker-a.jsonl", 2)):
            writer = JournalWriter(
                run_dir / SEGMENTS_DIRNAME / name, run_id="r1", worker=name
            )
            for n in range(count):
                writer.emit("tick", n=n)
            writer.close()
        merged = merge_segments(run_dir)
        assert len(merged) == 5
        on_disk = read_events(run_dir / EVENTS_FILENAME)
        assert on_disk == merged
        timestamps = [event["ts"] for event in on_disk]
        assert timestamps == sorted(timestamps)
        # Each writer's own order survives the global sort.
        for name in ("worker-a.jsonl", "worker-b.jsonl"):
            seqs = [e["seq"] for e in on_disk if e["worker"] == name]
            assert seqs == sorted(seqs)
        assert list((run_dir / SEGMENTS_DIRNAME).iterdir()) == []

    def test_merge_is_append_only(self, tmp_path):
        run_dir = self._run_dir(tmp_path)
        orchestrator = JournalWriter(
            run_dir / EVENTS_FILENAME, run_id="r1", worker="orchestrator"
        )
        orchestrator.emit("run_start")
        writer = JournalWriter(
            run_dir / SEGMENTS_DIRNAME / "w.jsonl", run_id="r1", worker="w"
        )
        writer.emit("tick")
        writer.close()
        merge_segments(run_dir)
        # The orchestrator's open O_APPEND handle still lands after the
        # merged events — the merge never rewrites the file under it.
        orchestrator.emit("run_end")
        orchestrator.close()
        events = [e["event"] for e in read_events(run_dir / EVENTS_FILENAME)]
        assert events == ["run_start", "tick", "run_end"]

    def test_merge_copies_lines_as_reencoding_would_write_them(
        self, tmp_path, monkeypatch
    ):
        """Real 2-worker segments plus a torn tail merge to the bytes a
        parse-and-``json.dumps`` merge writes."""
        import shutil

        from repro.core.config import FuzzConfig
        from repro.core.fleet import FleetOrchestrator
        from repro.telemetry import recorder
        from repro.testbed.profiles import ALL_PROFILES

        kept = tmp_path / "kept"

        def keep_segments(run_dir):
            shutil.copytree(run_dir / SEGMENTS_DIRNAME, kept, dirs_exist_ok=True)
            return merge_segments(run_dir)

        monkeypatch.setattr(recorder, "merge_segments", keep_segments)
        with FleetOrchestrator(
            profiles=ALL_PROFILES[:2],
            strategies=["sequential"],
            workers=2,
            base_config=FuzzConfig(max_packets=600),
            targets=("l2cap", "sdp"),
            telemetry_dir=str(tmp_path / "runs"),
        ) as orchestrator:
            orchestrator.run()
        segments = sorted(kept.glob("*.jsonl"))
        assert len(segments) >= 2
        with open(segments[0], "a", encoding="utf-8") as handle:
            handle.write('{"event": "torn", "ts": 0.')
        run_dir = self._run_dir(tmp_path)
        for segment in segments:
            shutil.copy(segment, run_dir / SEGMENTS_DIRNAME / segment.name)

        merged = merge_segments(run_dir)
        ordered = [
            (event, segment.name)
            for segment in segments
            for event in read_events(segment)
        ]
        ordered.sort(
            key=lambda item: (item[0]["ts"], item[1], item[0]["seq"])
        )
        expected = "".join(json.dumps(event) + "\n" for event, _ in ordered)
        assert len(merged) == len(ordered) > 0
        assert (run_dir / EVENTS_FILENAME).read_text(encoding="utf-8") == expected

    def test_merge_without_segments_dir_is_noop(self, tmp_path):
        assert merge_segments(tmp_path / "nowhere") == []

    def test_scan_events_includes_live_segments(self, tmp_path):
        run_dir = self._run_dir(tmp_path)
        orchestrator = JournalWriter(
            run_dir / EVENTS_FILENAME, run_id="r1", worker="orchestrator"
        )
        orchestrator.emit("run_start")
        orchestrator.close()
        live = JournalWriter(
            run_dir / SEGMENTS_DIRNAME / "w.jsonl", run_id="r1", worker="w"
        )
        live.emit("campaign_start", campaign=0)
        # Segment intentionally not closed / not merged: a worker
        # mid-shard. The live view must still see its events.
        events = scan_events(run_dir)
        assert [e["event"] for e in events] == ["run_start", "campaign_start"]
        live.close()


def _segment_worker(run_dir: str, worker: int, count: int) -> None:
    writer = shard_journal(run_dir, run_id="r1", shard_key=worker)
    for n in range(count):
        writer.emit("tick", n=n, origin=worker)
    writer.close()


class TestConcurrentWriters:
    def test_multiprocess_segments_merge_without_torn_lines(self, tmp_path):
        """Four processes × 200 events each: exact counts, valid JSON."""
        count = 200
        context = multiprocessing.get_context("spawn")
        procs = [
            context.Process(
                target=_segment_worker, args=(str(tmp_path), worker, count)
            )
            for worker in range(4)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join()
            assert proc.exitcode == 0
        run_dir = tmp_path / "r1"
        merged = merge_segments(run_dir)
        assert len(merged) == 4 * count
        by_origin: dict[int, list[int]] = {}
        for event in merged:
            by_origin.setdefault(event["origin"], []).append(event["n"])
        assert set(by_origin) == {0, 1, 2, 3}
        for ns in by_origin.values():
            assert sorted(ns) == list(range(count))
        # Round-trip through disk parses cleanly line by line.
        raw = (run_dir / EVENTS_FILENAME).read_text().splitlines()
        assert len(raw) == 4 * count
        for line in raw:
            json.loads(line)

    def test_threaded_writers_on_distinct_segments(self, tmp_path):
        run_dir = tmp_path / "run"
        count = 300

        def work(worker: int) -> None:
            writer = JournalWriter(
                run_dir / SEGMENTS_DIRNAME / f"t{worker}.jsonl",
                run_id="r1",
                worker=f"t{worker}",
            )
            for n in range(count):
                writer.emit("tick", n=n)
            writer.close()

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        merged = merge_segments(run_dir)
        assert len(merged) == 4 * count
