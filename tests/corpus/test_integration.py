"""End-to-end corpus workflows: fleet write-back, replay, feedback.

These pin the PR's acceptance criteria: a corpus written by a fleet run
reloads and replays every stored finding deterministically, and the
coverage-guided scheduler reaches the sequential baseline's state
coverage with fewer mutated packets.
"""

from __future__ import annotations

import json
import sqlite3

import pytest

from repro.analysis.state_coverage import (
    StateCoverageAnalyzer,
    packets_to_coverage,
)
from repro.core.config import FuzzConfig
from repro.core.fleet import FleetOrchestrator
from repro.core.runtime import CHECKPOINTS_DIRNAME, AbortRequested
from repro.corpus import (
    SqliteCorpusBackend,
    open_backend,
    record_campaign,
    replay_entry,
    replay_finding,
)
from repro.corpus.store import campaign_batch
from repro.testbed.profiles import ALL_PROFILES, D2, PROFILES_BY_ID
from repro.testbed.session import FuzzSession


@pytest.fixture(scope="module")
def fleet_corpus(tmp_path_factory):
    """One 3-profile × 2-strategy fleet run writing a shared corpus."""
    root = tmp_path_factory.mktemp("corpus")
    orchestrator = FleetOrchestrator(
        ALL_PROFILES[:3],
        ["sequential", "coverage_guided"],
        fleet_seed=7,
        workers=2,
        base_config=FuzzConfig(max_packets=1200),
        corpus_dir=str(root),
    )
    report = orchestrator.run()
    return root, report


class TestFleetWriteBack:
    def test_corpus_populated(self, fleet_corpus):
        root, report = fleet_corpus
        store = open_backend(root)
        assert store.entry_count() > 0
        assert open_backend(root).finding_count() > 0
        assert "CLOSED" in store.coverage()

    def test_every_stored_finding_replays_deterministically(self, fleet_corpus):
        root, _ = fleet_corpus
        database = open_backend(root)
        for record in database.finding_records():
            first = replay_finding(record, PROFILES_BY_ID)
            second = replay_finding(record, PROFILES_BY_ID)
            assert first.reproduced
            assert not first.regression
            assert first == second  # deterministic, byte for byte

    def test_entries_replay_and_cover_states(self, fleet_corpus):
        root, _ = fleet_corpus
        store = open_backend(root)
        canonical = store.minimize()
        assert canonical
        for entry in canonical[:5]:
            outcome = replay_entry(entry, PROFILES_BY_ID)
            assert outcome.packets_replayed > 0
            assert outcome.covered_states

    def test_canonical_corpus_still_covers_union(self, fleet_corpus):
        root, _ = fleet_corpus
        store = open_backend(root)
        canonical = store.minimize(write=False)
        covered: set[str] = set()
        for entry in canonical:
            covered.update(entry.covered)
        assert covered == set(store.coverage())
        assert len(canonical) <= store.entry_count()

    def test_second_fleet_run_deduplicates_findings(self, fleet_corpus):
        root, _ = fleet_corpus
        before = {
            record.bucket_id: record.occurrences
            for record in open_backend(root).finding_records()
        }
        FleetOrchestrator(
            ALL_PROFILES[:3],
            ["sequential"],
            fleet_seed=99,
            base_config=FuzzConfig(max_packets=1200),
            corpus_dir=str(root),
        ).run()
        after = {
            record.bucket_id: record.occurrences
            for record in open_backend(root).finding_records()
        }
        # Re-found bugs land in their existing buckets with higher
        # occurrence counts instead of spawning new ones.
        assert any(
            after[bucket] > count
            for bucket, count in before.items()
            if bucket in after
        )


class TestCoverageFeedback:
    def test_guided_reaches_baseline_coverage_with_fewer_packets(self):
        baseline = FuzzSession(
            D2, FuzzConfig(max_packets=3000), armed=False, strategy="sequential"
        )
        baseline.run()
        target = StateCoverageAnalyzer().analyze(baseline.fuzzer.sniffer)
        guided = FuzzSession(
            D2,
            FuzzConfig(max_packets=3000),
            armed=False,
            strategy="coverage_guided",
        )
        guided.run()
        baseline_packets = packets_to_coverage(
            baseline.fuzzer.sniffer, len(target)
        )
        guided_packets = packets_to_coverage(guided.fuzzer.sniffer, len(target))
        assert baseline_packets is not None
        assert guided_packets is not None
        assert guided_packets < baseline_packets

    def test_guided_campaign_is_deterministic(self):
        config = FuzzConfig(max_packets=900)
        first = FuzzSession(D2, config, armed=False, strategy="coverage_guided")
        second = FuzzSession(D2, config, armed=False, strategy="coverage_guided")
        assert first.run() == second.run()


class TestSessionWriteBack:
    def test_session_records_unlocks_and_findings(self, tmp_path):
        session = FuzzSession(
            D2, FuzzConfig(max_packets=50_000), corpus_dir=str(tmp_path)
        )
        report = session.run()
        assert report.vulnerability_found
        store = open_backend(tmp_path)
        replayable = [
            prefix for _, prefix in session.fuzzer.coverage_log if prefix > 0
        ]
        assert store.entry_count() == len(replayable)
        assert open_backend(tmp_path).finding_count() == 1

    def test_rerun_is_idempotent(self, tmp_path):
        for _ in range(2):
            FuzzSession(
                D2, FuzzConfig(max_packets=50_000), corpus_dir=str(tmp_path)
            ).run()
        store = open_backend(tmp_path)
        database = open_backend(tmp_path)
        # Identical campaign, identical content hashes: no growth, but
        # the finding bucket counts the re-detection.
        assert database.finding_count() == 1
        assert database.finding_records()[0].occurrences == 2
        first_ids = {entry.entry_id for entry in store.entries()}
        FuzzSession(
            D2, FuzzConfig(max_packets=50_000), corpus_dir=str(tmp_path)
        ).run()
        assert {entry.entry_id for entry in store.entries()} == first_ids

    def test_dictionary_splice_changes_garbage_stream(self, tmp_path):
        plain = FuzzSession(D2, FuzzConfig(max_packets=600), armed=False)
        plain.run()
        spliced = FuzzSession(
            D2,
            FuzzConfig(max_packets=600),
            armed=False,
            dictionary=(b"\xd2\x3a\x91\x0e",),
        )
        spliced.run()
        token_seen = any(
            entry.packet.garbage == b"\xd2\x3a\x91\x0e"
            for entry in spliced.fuzzer.sniffer.sent()
        )
        assert token_seen
        # An empty dictionary leaves the RNG stream untouched, so the
        # plain campaign cannot have drawn the token by accident.
        assert not any(
            entry.packet.garbage == b"\xd2\x3a\x91\x0e"
            for entry in plain.fuzzer.sniffer.sent()
        )


class _FailingConnection:
    """A database connection whose *fail_at*-th finding write raises.

    Each finding starts with one ``INSERT OR IGNORE INTO findings``, so
    counting those counts findings.
    """

    def __init__(self, connection, writes: list, fail_at: int, error) -> None:
        self._connection = connection
        self._writes = writes
        self._fail_at = fail_at
        self._error = error

    def execute(self, sql, *args):
        if sql.startswith("INSERT OR IGNORE INTO findings"):
            self._writes.append(sql)
            if len(self._writes) == self._fail_at:
                raise self._error
        return self._connection.execute(sql, *args)

    def __getattr__(self, name):
        return getattr(self._connection, name)


def record_campaigns(root, campaigns) -> list[dict]:
    """Write finished campaigns the way the fleet runtime commits a
    ready prefix: every batch built first, then one ``ingest``."""
    batches = [campaign_batch(*campaign, armed=True) for campaign in campaigns]
    backend = open_backend(root)
    try:
        return backend.ingest(batches)
    finally:
        backend.close()


class TestShardWriteBack:
    """One ``ingest`` writes many campaigns all-or-nothing."""

    @pytest.fixture(scope="class")
    def shard(self):
        """Three finished D2 campaigns hitting one bug; the third repeats
        the first, so the shard carries duplicates of its own."""
        campaigns = []
        for seed in (0x1202, 0x0707, 0x1202):
            session = FuzzSession(D2, FuzzConfig(max_packets=50_000, seed=seed))
            campaigns.append((D2, session.fuzzer, session.run()))
        return campaigns

    @staticmethod
    def _snapshot(root):
        backend = open_backend(root)
        try:
            return (
                backend.entries(),
                backend.finding_records(),
                backend.stats(),
            )
        finally:
            backend.close()

    @staticmethod
    def _fail_finding_write(monkeypatch, fail_at: int, error) -> list:
        writes: list = []
        connect = SqliteCorpusBackend._connect

        def failing(self, create):
            connection = connect(self, create)
            return _FailingConnection(connection, writes, fail_at, error)

        monkeypatch.setattr(SqliteCorpusBackend, "_connect", failing)
        return writes

    def test_counts_match_campaign_by_campaign(self, shard, tmp_path):
        batched = record_campaigns(tmp_path / "shard", shard)
        single = [
            record_campaign(tmp_path / "single", profile, fuzzer, report)
            for profile, fuzzer, report in shard
        ]
        assert batched == single
        assert [counts["findings_new"] for counts in batched] == [1, 0, 0]
        assert [counts["findings_duplicate"] for counts in batched] == [0, 1, 1]
        assert batched[0]["entries_added"] > 0
        assert batched[2]["entries_added"] == 0
        assert self._snapshot(tmp_path / "shard") == self._snapshot(
            tmp_path / "single"
        )

    def test_failed_write_back_changes_nothing(self, shard, tmp_path, monkeypatch):
        root = tmp_path / "corpus"
        record_campaigns(root, shard[:1])
        before = self._snapshot(root)
        with monkeypatch.context() as patch:
            writes = self._fail_finding_write(
                patch, 2, sqlite3.OperationalError("disk I/O error")
            )
            with pytest.raises(sqlite3.OperationalError, match="disk I/O"):
                record_campaigns(root, shard)
        assert len(writes) == 2
        assert self._snapshot(root) == before
        # The requeued shard writes everything exactly once.
        counts = record_campaigns(root, shard)
        assert [c["findings_duplicate"] for c in counts] == [1, 1, 1]
        (record,) = open_backend(root).finding_records()
        assert record.occurrences == 1 + len(shard)


class TestResumeWriteBack:
    """What a resume keeps when a campaign's corpus rows committed but
    its checkpoint was never written (the run died between the two)."""

    @staticmethod
    def _fleet(tmp_path, corpus, **kwargs):
        return FleetOrchestrator(
            [PROFILES_BY_ID["D2"]],
            ["sequential"],
            fleet_seed=3,
            workers=1,
            base_config=FuzzConfig(max_packets=2_000),
            corpus_dir=str(tmp_path / corpus),
            telemetry_dir=str(tmp_path / "runs"),
            **kwargs,
        )

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        """A direct run, and a run whose checkpoint is lost, then resumed."""
        tmp_path = tmp_path_factory.mktemp("resume")
        direct = self._fleet(tmp_path, "direct")
        with direct:
            direct_report = direct.run()
        interrupted = self._fleet(tmp_path, "resumed")
        with interrupted:
            interrupted.run()
        run_dir = tmp_path / "runs" / interrupted.run_id
        for checkpoint in (run_dir / CHECKPOINTS_DIRNAME).iterdir():
            checkpoint.unlink()
        resumed = self._fleet(tmp_path, "resumed", resume_run_id=run_dir.name)
        with resumed:
            resumed_report = resumed.run()
        stores = {
            name: open_backend(tmp_path / name) for name in ("direct", "resumed")
        }
        yield direct_report, resumed_report, stores
        for store in stores.values():
            store.close()

    def test_report_and_entries_are_the_same(self, runs):
        direct_report, resumed_report, stores = runs
        assert resumed_report.to_json() == direct_report.to_json()
        assert stores["resumed"].entries() == stores["direct"].entries()
        assert stores["direct"].finding_count() == 1

    def test_occurrence_counts_are_the_same(self, runs):
        _, _, stores = runs
        assert [r.occurrences for r in stores["resumed"].finding_records()] == [
            r.occurrences for r in stores["direct"].finding_records()
        ]


def _checkpointed(run_dir) -> list[int]:
    return sorted(
        int(path.stem.split("-")[1])
        for path in (run_dir / CHECKPOINTS_DIRNAME).glob("campaign-*.bin")
    )


def _committed(root, run_id) -> dict:
    backend = open_backend(root)
    try:
        return json.loads(backend.read_meta(f"committed:{run_id}"))
    finally:
        backend.close()


def _tables(root) -> list[str]:
    """The database dump, less the runs' committed-prefix rows."""
    connection = sqlite3.connect(root / "corpus.sqlite3")
    try:
        return [
            line
            for line in connection.iterdump()
            if not line.startswith("INSERT INTO \"meta\" VALUES('committed:")
        ]
    finally:
        connection.close()


class TestCommittedPrefix:
    """A checkpoint never exists without its corpus rows: every
    checkpointed campaign lies below the run's committed prefix, also
    after an abort, and the resume completes the uninterrupted corpus."""

    @staticmethod
    def _fleet(tmp_path, name, workers, **kwargs):
        return FleetOrchestrator(
            ALL_PROFILES[:4],
            ["sequential", "targeted"],
            fleet_seed=5,
            workers=workers,
            batch=1,
            base_config=FuzzConfig(max_packets=2_000),
            corpus_dir=str(tmp_path / name),
            telemetry_dir=str(tmp_path / "runs"),
            **kwargs,
        )

    @pytest.fixture(scope="class")
    def direct(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("direct")
        fleet = self._fleet(tmp_path, "corpus", workers=1)
        with fleet:
            report = fleet.run()
        return tmp_path, fleet.run_id, report

    def test_finished_run_commits_every_campaign(self, direct):
        tmp_path, run_id, report = direct
        assert _committed(tmp_path / "corpus", run_id) == {
            "prefix": 8,
            "skipped": [],
        }
        assert _checkpointed(tmp_path / "runs" / run_id) == list(range(8))
        assert report.findings

    @pytest.mark.parametrize("workers", [1, 2])
    def test_abort_keeps_checkpoints_below_the_prefix(
        self, tmp_path, direct, workers
    ):
        polls = []

        def abort_on_third_poll() -> bool:
            polls.append(1)
            return len(polls) == 3

        aborted = self._fleet(
            tmp_path, "corpus", workers, abort_check=abort_on_third_poll
        )
        with aborted:
            with pytest.raises(AbortRequested):
                aborted.run()
        run_dir = tmp_path / "runs" / aborted.run_id
        committed = _committed(tmp_path / "corpus", aborted.run_id)
        checkpointed = _checkpointed(run_dir)
        assert checkpointed, "the abort committed nothing"
        assert committed["skipped"] == []
        assert all(index < committed["prefix"] for index in checkpointed)
        assert committed["prefix"] < 8

        resumed = self._fleet(
            tmp_path, "corpus", workers, resume_run_id=aborted.run_id
        )
        with resumed:
            report = resumed.run()
        direct_root, direct_run, direct_report = direct
        assert report.campaigns == direct_report.campaigns
        assert report.findings == direct_report.findings
        assert _committed(tmp_path / "corpus", aborted.run_id)["prefix"] == 8
        assert _checkpointed(run_dir) == list(range(8))
        assert _tables(tmp_path / "corpus") == _tables(direct_root / "corpus")
