"""Fault tolerance: supervised recovery, quarantine, checkpoint/resume.

The contract under test: faults change *how long* a fleet takes, never
*what* it computes. Every recovery path — worker crash, hang, corrupt
summary, transient corpus IO — must converge to the byte-identical
fault-free report, an interrupted run must resume to the same report
re-running only the missing campaigns, and a genuinely poisoned
campaign must be isolated (quarantined) without taking its shard-mates
or the run down with it.
"""

from __future__ import annotations

import json
import os
import signal
import sqlite3
import time

import pytest

from repro.core.config import FuzzConfig
from repro.core.fleet import FleetOrchestrator
from repro.core.runtime import (
    CHECKPOINTS_DIRNAME,
    MAX_ATTEMPTS,
    SHARD_TIMEOUT,
    AbortRequested,
    FleetContext,
    FleetRuntime,
    SummaryDecodeError,
    decode_summary,
    encode_summary,
    load_checkpoints,
    write_checkpoints,
)
from repro.faults import (
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    WorkerCrashError,
    seeded_plan,
)
from repro.telemetry import EVENTS_FILENAME, read_events, read_manifest
from repro.testbed.profiles import ALL_PROFILES

BUDGET = 600


def _orchestrator(workers: int = 2, **kwargs) -> FleetOrchestrator:
    return FleetOrchestrator(
        profiles=ALL_PROFILES[:2],
        strategies=("sequential",),
        fleet_seed=7,
        workers=workers,
        base_config=FuzzConfig(max_packets=BUDGET),
        **kwargs,
    )


def _rendered(report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True)


def _spy_dispatch(monkeypatch) -> list[list[int]]:
    """Record the campaign indices of every ``run_specs`` call."""
    dispatched = []
    original = FleetRuntime.run_specs

    def spy(self, specs, *args, **kwargs):
        specs = tuple(specs)
        dispatched.append([spec[0] for spec in specs])
        return original(self, specs, *args, **kwargs)

    monkeypatch.setattr(FleetRuntime, "run_specs", spy)
    return dispatched


@pytest.fixture(scope="module")
def baseline() -> str:
    """The fault-free report every recovery test must converge to."""
    with _orchestrator() as orchestrator:
        return _rendered(orchestrator.run())


@pytest.fixture(scope="module")
def sample_summary():
    """One real campaign summary for encode/checkpoint round-trips."""
    with _orchestrator(workers=1) as orchestrator:
        _, summary = orchestrator.run().campaigns[0]
        return summary


def _plan(tmp_path, *faults: FaultSpec) -> FaultPlan:
    return FaultPlan(faults=tuple(faults), ledger_dir=str(tmp_path / "ledger"))


class TestChaosRecovery:
    """Each fault kind recovers to the byte-identical fault-free report."""

    def test_worker_crash_recovers(self, tmp_path, baseline):
        plan = _plan(
            tmp_path, FaultSpec(kind="crash", site="shard.start", spec_index=0)
        )
        with _orchestrator(fault_plan=plan) as orchestrator:
            report = orchestrator.run()
        assert _rendered(report) == baseline
        stats = orchestrator.last_supervision
        assert stats.worker_crashes >= 1
        assert stats.pool_restarts >= 1
        assert stats.retries >= 1
        assert not stats.quarantined

    def test_hang_trips_deadline_and_recovers(self, tmp_path, baseline):
        plan = _plan(
            tmp_path,
            FaultSpec(
                kind="hang", site="shard.start", spec_index=0, hang_seconds=30.0
            ),
        )
        with _orchestrator(
            fault_plan=plan, shard_timeout=1.5
        ) as orchestrator:
            report = orchestrator.run()
        assert _rendered(report) == baseline
        stats = orchestrator.last_supervision
        assert stats.timeouts >= 1
        assert stats.pool_restarts >= 1

    def test_corrupt_summary_blob_retried(self, tmp_path, baseline):
        plan = _plan(
            tmp_path, FaultSpec(kind="corrupt", site="shard.summary", spec_index=1)
        )
        with _orchestrator(fault_plan=plan) as orchestrator:
            report = orchestrator.run()
        assert _rendered(report) == baseline
        stats = orchestrator.last_supervision
        assert stats.decode_failures >= 1
        assert stats.retries >= 1

    def test_transient_corpus_io_error_retried(self, tmp_path):
        contents = []
        reports = []
        for label, plan in (
            ("clean", None),
            (
                "chaos",
                _plan(
                    tmp_path,
                    FaultSpec(
                        kind="corpus_io", site="shard.writeback", spec_index=0
                    ),
                ),
            ),
        ):
            root = tmp_path / f"corpus-{label}"
            with _orchestrator(
                corpus_dir=str(root), fault_plan=plan
            ) as orchestrator:
                reports.append(_rendered(orchestrator.run()))
                if plan is not None:
                    assert orchestrator.last_supervision.retries >= 1
            connection = sqlite3.connect(root / "corpus.sqlite3")
            contents.append(list(connection.iterdump()))
            connection.close()
        assert reports[0] == reports[1]
        # The fault fires in the worker before its batches reach the
        # runtime, so the requeued shard is written exactly once: the
        # whole database, occurrence counts included, is the clean one.
        assert contents[0] == contents[1]
        assert any(line.startswith('INSERT INTO "entries"') for line in contents[0])

    def test_seeded_chaos_plan_is_deterministic(self, tmp_path):
        first = seeded_plan(1202, 16, FAULT_KINDS, tmp_path / "a")
        second = seeded_plan(1202, 16, FAULT_KINDS, tmp_path / "b")
        assert first.faults == second.faults
        assert seeded_plan(7, 16, FAULT_KINDS, tmp_path).faults != first.faults

    def test_seeded_chaos_plan_hits_pinned_campaigns(self, tmp_path):
        # The campaign indices each kind strikes, pinned: a change to the
        # plan's derivation would silently move every chaos run in CI.
        plan = seeded_plan(1202, 16, FAULT_KINDS, tmp_path)
        assert [(f.kind, f.site, f.spec_index) for f in plan.faults] == [
            ("crash", "shard.start", 9),
            ("hang", "shard.start", 7),
            ("corrupt", "shard.summary", 1),
            ("corpus_io", "shard.writeback", 5),
        ]
        wide = seeded_plan(1202, 16, FAULT_KINDS, tmp_path, faults_per_kind=3)
        assert [f.spec_index for f in wide.faults] == [
            9, 3, 0, 5, 2, 6, 0, 7, 3, 11, 0, 7,
        ]


class TestPoisonQuarantine:
    def test_poison_campaign_is_bisected_and_quarantined(self, tmp_path):
        # One campaign crashes its worker on *every* attempt. Shard-mates
        # must still complete; the poison ends up quarantined, not the run.
        poison = 2
        plan = _plan(
            tmp_path,
            FaultSpec(
                kind="crash", site="shard.start", spec_index=poison, times=999
            ),
        )
        orchestrator = FleetOrchestrator(
            profiles=ALL_PROFILES[:4],
            strategies=("sequential",),
            fleet_seed=7,
            workers=2,
            batch=4,
            base_config=FuzzConfig(max_packets=BUDGET),
            fault_plan=plan,
        )
        with orchestrator:
            report = orchestrator.run()
        stats = orchestrator.last_supervision
        assert stats.bisections >= 1
        assert [item.index for item in report.quarantined] == [poison]
        assert report.quarantined[0].attempts >= MAX_ATTEMPTS
        assert "crash" in report.quarantined[0].reason.lower() or "died" in (
            report.quarantined[0].reason.lower()
        )
        completed = {spec.index for spec, _ in report.campaigns}
        assert completed == {0, 1, 3}
        # The diagnostic survives serialisation.
        assert report.to_dict()["quarantined"][0]["index"] == poison
        assert "Quarantined campaigns" in report.to_markdown()

    def test_resume_ingests_the_quarantined_campaign_once(self, tmp_path):
        """The committed prefix moves past a quarantined campaign but
        records it as skipped, so the resume that re-runs it writes its
        rows, and nothing else twice."""
        from repro.corpus import open_backend

        poison = 2

        def fleet(name, **kwargs) -> FleetOrchestrator:
            return FleetOrchestrator(
                profiles=ALL_PROFILES[:4],
                strategies=("sequential",),
                fleet_seed=7,
                workers=2,
                batch=4,
                base_config=FuzzConfig(max_packets=BUDGET),
                corpus_dir=str(tmp_path / name),
                telemetry_dir=str(tmp_path / "runs"),
                **kwargs,
            )

        def committed(run_id) -> dict:
            backend = open_backend(tmp_path / "resumed")
            try:
                return json.loads(backend.read_meta(f"committed:{run_id}"))
            finally:
                backend.close()

        def contents(name):
            backend = open_backend(tmp_path / name)
            try:
                return backend.entries(), backend.finding_records()
            finally:
                backend.close()

        with fleet("direct") as direct:
            direct_report = direct.run()
        plan = _plan(
            tmp_path,
            FaultSpec(
                kind="crash", site="shard.start", spec_index=poison, times=999
            ),
        )
        with fleet("resumed", fault_plan=plan) as poisoned:
            report = poisoned.run()
        assert [item.index for item in report.quarantined] == [poison]
        assert committed(poisoned.run_id) == {"prefix": 4, "skipped": [poison]}
        with fleet("resumed", resume_run_id=poisoned.run_id) as resumed:
            resumed_report = resumed.run()
        assert committed(poisoned.run_id) == {"prefix": 4, "skipped": []}
        assert _rendered(resumed_report) == _rendered(direct_report)
        entries, findings = contents("resumed")
        assert entries and findings
        assert (entries, findings) == contents("direct")


class TestCheckpointResume:
    def _params(self, tmp_path, **kwargs) -> dict:
        return dict(
            profiles=ALL_PROFILES[:4],
            strategies=("sequential",),
            fleet_seed=7,
            workers=1,
            batch=1,
            base_config=FuzzConfig(max_packets=BUDGET),
            telemetry_dir=str(tmp_path / "runs"),
            **kwargs,
        )

    def test_resume_after_abort_matches_uninterrupted_run(
        self, tmp_path, monkeypatch
    ):
        # Uninterrupted reference run (telemetry has no report effect).
        reference = FleetOrchestrator(
            **dict(self._params(tmp_path), telemetry_dir=None)
        )
        with reference:
            expected = _rendered(reference.run())

        # Campaign 3's shard kills the run mid-flight: the single-worker
        # inline path has no supervisor, so the injected crash aborts
        # the fleet after campaigns 0..2 checkpointed.
        plan = _plan(
            tmp_path, FaultSpec(kind="crash", site="shard.start", spec_index=3)
        )
        aborted = FleetOrchestrator(**self._params(tmp_path, fault_plan=plan))
        run_id = aborted.run_id
        with aborted:
            with pytest.raises(WorkerCrashError):
                aborted.run()
        run_dir = tmp_path / "runs" / run_id
        manifest = read_manifest(run_dir)
        assert manifest["status"] == "aborted"
        assert "WorkerCrashError" in manifest["failure_reason"]
        checkpoints = sorted(
            path.name for path in (run_dir / CHECKPOINTS_DIRNAME).iterdir()
        )
        assert checkpoints == [
            "campaign-000000.bin",
            "campaign-000001.bin",
            "campaign-000002.bin",
        ]

        # Resume: only the missing campaign is dispatched; the merged
        # report is byte-identical to the uninterrupted run.
        dispatched = _spy_dispatch(monkeypatch)
        resumed = FleetOrchestrator(
            **self._params(tmp_path, resume_run_id=run_id)
        )
        with resumed:
            report = resumed.run()
        assert dispatched == [[3]]
        assert _rendered(report) == expected
        manifest = read_manifest(run_dir)
        assert manifest["status"] == "finished"
        assert manifest["resumed"] is True

    def test_one_worker_abort_stops_between_auto_sized_shards(
        self, tmp_path, monkeypatch
    ):
        """One worker with an auto batch still runs several shards, so an
        abort lands between them, keeps the finished shard's checkpoints
        and the resume re-runs only the rest."""
        params = dict(
            self._params(tmp_path),
            batch=None,
            strategies=("sequential", "targeted"),
        )
        reference = FleetOrchestrator(**dict(params, telemetry_dir=None))
        with reference:
            expected = _rendered(reference.run())

        polls = []

        def abort_on_second_poll() -> bool:
            polls.append(1)
            return len(polls) == 2

        aborted = FleetOrchestrator(
            **params, abort_check=abort_on_second_poll
        )
        run_id = aborted.run_id
        with aborted:
            with pytest.raises(AbortRequested, match="3 shard"):
                aborted.run()
        run_dir = tmp_path / "runs" / run_id
        assert sorted(
            path.name for path in (run_dir / CHECKPOINTS_DIRNAME).iterdir()
        ) == ["campaign-000000.bin", "campaign-000001.bin"]
        (abort,) = [
            event
            for event in read_events(run_dir / EVENTS_FILENAME)
            if event["event"] == "dispatch_abort"
        ]
        assert abort["pending"] == 3

        dispatched = _spy_dispatch(monkeypatch)
        resumed = FleetOrchestrator(**params, resume_run_id=run_id)
        with resumed:
            report = resumed.run()
        assert dispatched == [[2, 3, 4, 5, 6, 7]]
        assert _rendered(report) == expected

    def test_other_interpreter_checkpoint_is_rerun(
        self, tmp_path, monkeypatch
    ):
        """A checkpoint stamped by another Python reads as missing: the
        resume re-runs it and still merges the uninterrupted report."""
        reference = FleetOrchestrator(
            **dict(self._params(tmp_path), telemetry_dir=None)
        )
        with reference:
            expected = _rendered(reference.run())
        plan = _plan(
            tmp_path, FaultSpec(kind="crash", site="shard.start", spec_index=3)
        )
        aborted = FleetOrchestrator(**self._params(tmp_path, fault_plan=plan))
        run_id = aborted.run_id
        with aborted:
            with pytest.raises(WorkerCrashError):
                aborted.run()
        checkpoint = (
            tmp_path / "runs" / run_id / CHECKPOINTS_DIRNAME
            / "campaign-000001.bin"
        )
        blob = bytearray(checkpoint.read_bytes())
        blob[1:3] = bytes((2, 7))  # interpreter major, minor
        checkpoint.write_bytes(bytes(blob))
        with pytest.raises(SummaryDecodeError, match="Python 2.7"):
            decode_summary(bytes(blob))

        dispatched = _spy_dispatch(monkeypatch)
        resumed = FleetOrchestrator(
            **self._params(tmp_path, resume_run_id=run_id)
        )
        with resumed:
            report = resumed.run()
        assert dispatched == [[1, 3]]
        assert _rendered(report) == expected

    @pytest.mark.parametrize("kill_point", ["mid-write", "before-publish"])
    def test_interrupted_context_snapshot_write_leaves_none(
        self, tmp_path, monkeypatch, kill_point
    ):
        """A kill while the context snapshot is written leaves the whole
        snapshot or none — never a torn file that resume dies on."""
        import os
        from pathlib import Path

        from repro.core.fleet import CONTEXT_SNAPSHOT_FILENAME

        reference = FleetOrchestrator(
            **dict(self._params(tmp_path), telemetry_dir=None)
        )
        with reference:
            expected = _rendered(reference.run())

        real_write_text, real_replace = Path.write_text, os.replace

        def torn_write(path, text, *args, **kwargs):
            if CONTEXT_SNAPSHOT_FILENAME in path.name:
                real_write_text(path, text[: len(text) // 2], *args, **kwargs)
                raise OSError("killed mid-write")
            return real_write_text(path, text, *args, **kwargs)

        def failed_publish(src, dst, *args, **kwargs):
            if os.path.basename(dst) == CONTEXT_SNAPSHOT_FILENAME:
                raise OSError("killed before publishing")
            return real_replace(src, dst, *args, **kwargs)

        with monkeypatch.context() as patch:
            if kill_point == "mid-write":
                patch.setattr(Path, "write_text", torn_write)
            else:
                patch.setattr(os, "replace", failed_publish)
            with pytest.raises(OSError, match="killed"):
                FleetOrchestrator(**self._params(tmp_path))
        (run_dir,) = (tmp_path / "runs").iterdir()
        assert not (run_dir / CONTEXT_SNAPSHOT_FILENAME).exists()

        resumed = FleetOrchestrator(
            **self._params(tmp_path, resume_run_id=run_dir.name)
        )
        with resumed:
            assert _rendered(resumed.run()) == expected
        snapshot = json.loads(
            (run_dir / CONTEXT_SNAPSHOT_FILENAME).read_text(encoding="utf-8")
        )
        assert set(snapshot) == {"prior_visits", "dictionary"}

    def test_resume_requires_matching_fleet(self, tmp_path):
        plan = _plan(
            tmp_path, FaultSpec(kind="crash", site="shard.start", spec_index=3)
        )
        aborted = FleetOrchestrator(**self._params(tmp_path, fault_plan=plan))
        run_id = aborted.run_id
        with aborted:
            with pytest.raises(WorkerCrashError):
                aborted.run()
        with pytest.raises(ValueError, match="does not match"):
            FleetOrchestrator(
                **dict(
                    self._params(tmp_path, resume_run_id=run_id),
                    fleet_seed=8,
                )
            )

    def test_resume_needs_telemetry_and_existing_run(self, tmp_path):
        with pytest.raises(ValueError, match="needs telemetry"):
            FleetOrchestrator(
                **dict(
                    self._params(tmp_path, resume_run_id="x"),
                    telemetry_dir=None,
                )
            )
        with pytest.raises(ValueError, match="no resumable run"):
            FleetOrchestrator(**self._params(tmp_path, resume_run_id="nope"))


class TestCheckpointFiles:
    def test_round_trip(self, tmp_path, sample_summary):
        write_checkpoints(tmp_path, {5: encode_summary(sample_summary)})
        restored = load_checkpoints(tmp_path)
        assert set(restored) == {5}
        assert restored[5] == sample_summary

    def test_truncated_checkpoint_skipped(self, tmp_path, sample_summary):
        write_checkpoints(tmp_path, {5: encode_summary(sample_summary)})
        checkpoint_dir = tmp_path / CHECKPOINTS_DIRNAME
        (checkpoint_dir / "campaign-000006.bin").write_bytes(
            encode_summary(sample_summary)[:10]
        )
        (checkpoint_dir / "campaign-garbage.bin").write_bytes(b"x")
        restored = load_checkpoints(tmp_path)
        assert set(restored) == {5}

    @pytest.mark.parametrize("target", ["l2cap", "rfcomm", "sdp", "obex"])
    def test_same_campaign_encodes_identical_bytes(self, target):
        """Two independent runs of one seeded campaign encode to the
        same bytes, so a retried shard rewrites its checkpoints
        unchanged."""
        from repro.core.runtime import summarize_session
        from repro.testbed.profiles import D2
        from repro.testbed.session import FuzzSession

        def blob() -> bytes:
            session = FuzzSession(
                D2, FuzzConfig(max_packets=BUDGET, seed=11), target=target
            )
            return encode_summary(summarize_session(session, session.run()))

        assert blob() == blob()

    def test_missing_dir_is_empty(self, tmp_path):
        assert load_checkpoints(tmp_path / "nowhere") == {}


class TestSummaryDecodeError:
    def test_is_a_typed_value_error(self):
        from repro.errors import ReproError

        assert issubclass(SummaryDecodeError, ReproError)
        assert issubclass(SummaryDecodeError, ValueError)

    def test_empty_blob(self):
        with pytest.raises(SummaryDecodeError, match="empty"):
            decode_summary(b"")

    def test_truncated_blob(self, sample_summary):
        blob = encode_summary(sample_summary)
        with pytest.raises(SummaryDecodeError):
            decode_summary(blob[: len(blob) // 3])

    def test_trailing_garbage(self, sample_summary):
        blob = encode_summary(sample_summary)
        with pytest.raises(SummaryDecodeError, match="consumed"):
            decode_summary(blob + b"\x00\x01")

    def test_every_bit_flip_is_caught(self, tmp_path, sample_summary):
        """No single flipped bit, header or body, decodes to a different
        summary: each raises, and a flipped checkpoint reads as missing."""
        assert sample_summary.findings, "want an armed summary with a finding"
        blob = encode_summary(sample_summary)
        for bit in range(len(blob) * 8):
            flipped = bytearray(blob)
            flipped[bit // 8] ^= 1 << (bit % 8)
            with pytest.raises(SummaryDecodeError):
                decode_summary(bytes(flipped))
        write_checkpoints(tmp_path, {5: blob})
        flipped = bytearray(blob)
        flipped[len(blob) // 2] ^= 0x10
        (tmp_path / CHECKPOINTS_DIRNAME / "campaign-000006.bin").write_bytes(
            bytes(flipped)
        )
        assert set(load_checkpoints(tmp_path)) == {5}


class TestBothPoolPaths:
    """Worker failure mid-shard recovers on the process pool."""

    def _context(self, plan: FaultPlan | None = None) -> FleetContext:
        return FleetContext(
            base_config=FuzzConfig(max_packets=BUDGET),
            armed=True,
            target_state_value="OPEN",
            corpus_dir=None,
            retain_trace=False,
            prior_visits=(),
            dictionary=(),
            fault_plan=plan,
        )

    def _specs(self):
        with _orchestrator() as orchestrator:
            return orchestrator.specs()

    def test_process_pool_worker_failure_recovers(self, tmp_path):
        specs = self._specs()
        plan = _plan(
            tmp_path, FaultSpec(kind="crash", site="shard.start", spec_index=0)
        )
        clean = FleetRuntime(self._context(), workers=2)
        with clean:
            expected = clean.run_specs(specs)
        runtime = FleetRuntime(self._context(plan), workers=2)
        with runtime:
            summaries = runtime.run_specs(specs)
        assert summaries == expected
        assert runtime.last_supervision.pool_restarts >= 1

    def test_runtime_reusable_after_close(self):
        specs = self._specs()
        runtime = FleetRuntime(self._context(), workers=2)
        first = runtime.run_specs(specs)
        runtime.close()
        # A closed runtime lazily rebuilds its pool on the next dispatch.
        second = runtime.run_specs(specs)
        runtime.close()
        assert first == second

    def test_idle_worker_death_restarts_the_pool(self):
        # A worker of a warm pool dies between calls, so the pool is
        # broken before any shard is submitted to it. Every later call
        # must restart the pool and return a fresh runtime's summaries.
        specs = self._specs()
        with FleetRuntime(self._context(), workers=2) as fresh:
            expected = fresh.run_specs(specs)
        with FleetRuntime(self._context(), workers=2) as runtime:
            runtime.run_specs(specs)
            pool = runtime._pool
            worker = next(iter(pool._processes.values()))
            os.kill(worker.pid, signal.SIGKILL)
            deadline = time.monotonic() + 10
            while not pool._broken and time.monotonic() < deadline:
                time.sleep(0.01)
            assert pool._broken, "the executor never noticed the death"
            restarts = []
            for _ in range(3):
                assert runtime.run_specs(specs) == expected
                restarts.append(runtime.last_supervision.pool_restarts)
        assert restarts[0] >= 1
        assert runtime.last_supervision.quarantined == []


class TestCorpusCreation:
    """A corpus file appears whole and in WAL mode, so writers that
    create one at the same moment both commit, without a retry."""

    @staticmethod
    def _entry(seed: int):
        from repro.corpus.entry import entry_from_packets
        from repro.l2cap.packets import echo_request

        return entry_from_packets(
            packets=[echo_request(bytes([seed]), identifier=1)],
            unlocked=["OPEN"],
            covered=["OPEN"],
            device_id="D2",
            strategy="sequential",
            seed=seed,
            armed=False,
            target="l2cap",
        )

    def test_losing_creator_writes_into_the_winners_file(
        self, tmp_path, monkeypatch
    ):
        from repro.corpus import sqlite_backend

        import threading

        root = tmp_path / "corpus"
        link = os.link

        def winner() -> None:
            backend = sqlite_backend.SqliteCorpusBackend(root)
            backend.ingest([([self._entry(1)], ())])
            backend.close()

        def raced(source, target):
            # Another writer publishes its database first.
            monkeypatch.setattr(sqlite_backend.os, "link", link)
            thread = threading.Thread(target=winner)
            thread.start()
            thread.join(timeout=60)
            assert not thread.is_alive()
            link(source, target)

        monkeypatch.setattr(sqlite_backend.os, "link", raced)
        loser = sqlite_backend.SqliteCorpusBackend(root)
        assert loser.ingest([([self._entry(2)], ())])[0]["entries_added"] == 1
        assert loser.entry_count() == 2
        assert sorted(path.name for path in root.iterdir()) == [
            "corpus.sqlite3",
            "corpus.sqlite3-shm",
            "corpus.sqlite3-wal",
        ]
        mode = loser._connect(create=False).execute("PRAGMA journal_mode")
        assert mode.fetchone() == ("wal",)
        loser.close()

    def test_simultaneous_creators_both_commit(self, tmp_path):
        import threading

        from repro.corpus.sqlite_backend import SqliteCorpusBackend

        for trial in range(20):
            root = tmp_path / f"corpus-{trial}"
            barrier = threading.Barrier(2, timeout=60)
            errors: list = []

            def write(seed: int) -> None:
                backend = SqliteCorpusBackend(root)
                barrier.wait()
                try:
                    backend.ingest([([self._entry(seed)], ())])
                except sqlite3.OperationalError as error:
                    errors.append(error)
                finally:
                    backend.close()

            threads = [
                threading.Thread(target=write, args=(seed,)) for seed in (1, 2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert errors == []
            assert SqliteCorpusBackend(root).entry_count() == 2


class TestCliFaultFlags:
    def test_chaos_run_recovers_and_reports(self, capsys):
        from repro.cli import main

        code = main(
            [
                "fleet",
                "--profiles", "2",
                "--strategies", "sequential",
                "--workers", "2",
                "--budget", "300",
                "--chaos", "corrupt",
                "--json",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "supervision:" in out
        assert "decode_failures=1" in out

    def test_unknown_chaos_kind_rejected(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="unknown --chaos kind"):
            main(["fleet", "--chaos", "gremlins", "--workers", "2"])

    def test_crash_chaos_needs_multiple_workers(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="--workers >= 2"):
            main(["fleet", "--chaos", "crash"])

    def test_refused_chaos_run_leaves_no_ledger(self, tmp_path, monkeypatch):
        """A fleet the orchestrator refuses still removes its fault ledger."""
        import tempfile

        from repro.cli import main

        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        with pytest.raises(SystemExit, match="no resumable run"):
            main(
                [
                    "fleet", "--workers", "2", "--chaos", "corrupt",
                    "--telemetry", str(tmp_path / "runs"),
                    "--resume", "nosuchrun",
                ]
            )
        assert list(scratch.glob("repro-chaos-*")) == []

    @pytest.mark.parametrize(
        "chaos, argv, floor",
        [
            (["--chaos", "hang"], [], 5.0),
            (["--chaos", "hang"], ["--shard-timeout", "2"], 2.0),
            ([], [], SHARD_TIMEOUT),
        ],
    )
    def test_shard_timeout_and_hang_demo_defaults(
        self, tmp_path, monkeypatch, chaos, argv, floor
    ):
        """A hang demo trips a 5 s deadline unless --shard-timeout says
        otherwise, and its hangs sleep four deadlines."""
        import tempfile

        from repro import cli

        seen = {}

        def capture(spec, **kwargs):
            seen.update(kwargs)
            raise ValueError("captured")

        monkeypatch.setattr(
            cli.FleetOrchestrator, "from_spec", staticmethod(capture)
        )
        monkeypatch.setattr(tempfile, "mkdtemp", lambda prefix: str(tmp_path))
        with pytest.raises(SystemExit, match="captured"):
            cli.main(["fleet", "--workers", "2", *chaos, *argv])
        assert seen["shard_timeout"] == floor
        if chaos:
            (hang,) = seen["fault_plan"].faults
            assert hang.hang_seconds == 4 * floor

    def test_resume_requires_telemetry(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="a resume needs telemetry"):
            main(["fleet", "--resume", "some-run"])

    def test_skipped_checkpoint_is_reported_without_verbose(
        self, tmp_path, capsys
    ):
        """Library warnings reach stderr by default: a resume that drops
        a damaged checkpoint says so without ``-v``, and still merges
        the byte-identical report."""
        from repro.cli import main

        runs_dir = tmp_path / "runs"
        argv = [
            "fleet",
            "--profiles", "2",
            "--strategies", "sequential",
            "--workers", "1",
            "--budget", "300",
            "--telemetry", str(runs_dir),
            "--json",
        ]
        assert main([*argv, "--output", str(tmp_path / "a.json")]) == 0
        run_dir = next(runs_dir.iterdir())
        checkpoint = run_dir / CHECKPOINTS_DIRNAME / "campaign-000001.bin"
        blob = bytearray(checkpoint.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        checkpoint.write_bytes(bytes(blob))
        capsys.readouterr()
        resumed = [*argv, "--output", str(tmp_path / "b.json")]
        assert main([*resumed, "--resume", run_dir.name]) == 0
        err = capsys.readouterr().err
        assert "skipping undecodable checkpoint campaign-000001.bin" in err
        assert (tmp_path / "a.json").read_bytes() == (
            tmp_path / "b.json"
        ).read_bytes()

    def test_abort_exits_two_with_partial_summary(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main
        from repro.core import fleet as fleet_module

        def explode(*_args, **_kwargs):
            raise RuntimeError("synthetic merge failure")

        runs_dir = tmp_path / "runs"
        with monkeypatch.context() as patched:
            patched.setattr(fleet_module, "merge_reports", explode)
            code = main(
                [
                    "fleet",
                    "--profiles", "2",
                    "--strategies", "sequential",
                    "--workers", "1",
                    "--budget", "300",
                    "--telemetry", str(runs_dir),
                ]
            )
        out = capsys.readouterr().out
        assert code == 2
        assert "fleet run aborted" in out
        assert "RuntimeError" in out
        assert "resume with:" in out
        run_dir = next(runs_dir.iterdir())
        manifest = read_manifest(run_dir)
        assert manifest["status"] == "aborted"
        assert "synthetic merge failure" in manifest["failure_reason"]

        # The printed resume incantation completes the run: exit 0.
        code = main(
            [
                "fleet",
                "--profiles", "2",
                "--strategies", "sequential",
                "--workers", "1",
                "--budget", "300",
                "--telemetry", str(runs_dir),
                "--resume", run_dir.name,
            ]
        )
        assert code == 0
        assert read_manifest(run_dir)["status"] == "finished"
