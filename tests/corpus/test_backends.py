"""Backend parity, concurrency and migration tests.

The contract under test: both storage backends answer every query
identically for the same operation history, occurrence counts stay
exact under concurrent writers, and ``migrate_to_sqlite`` converts a
file corpus without changing a byte of what it answers.
"""

from __future__ import annotations

import dataclasses
import json
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.corpus.backend import detect_backend_name, open_backend
from repro.corpus.entry import entry_from_packets
from repro.corpus.file_backend import FileCorpusBackend, entry_line
from repro.corpus.findings import (
    FindingDatabase,
    FindingRecord,
    record_to_dict,
    trigger_hash,
)
from repro.corpus.migrate import MigrationError, migrate_to_sqlite
from repro.corpus.sqlite_backend import SqliteCorpusBackend
from repro.corpus.store import CorpusStore
from repro.l2cap.packets import (
    configuration_request,
    connection_request,
    echo_request,
)

BACKENDS = ("file", "sqlite")


def _entry(tokens, packet_count=1, ident=1, device_id="D2", target="l2cap"):
    packets = [
        echo_request(b"x", identifier=ident + i) for i in range(packet_count)
    ]
    return entry_from_packets(
        packets=packets,
        unlocked=tokens,
        covered=tokens,
        device_id=device_id,
        strategy="sequential",
        seed=7,
        armed=False,
        target=target,
    )


def _record(**overrides) -> FindingRecord:
    packets = [
        connection_request(psm=0x0001, scid=0x40, identifier=1),
        configuration_request(dcid=0x0999, identifier=2),
    ]
    fields = dict(
        vendor="Google",
        vulnerability_class="DoS",
        trigger="CONFIGURATION_REQ(...)",
        trigger_hash=trigger_hash(packets),
        device_id="D2",
        state="WAIT_CONFIG",
        error_message="Connection Failed",
        packets=tuple(p.encode().hex() for p in packets),
        crash_id="bluedroid-cidp-null-deref",
        sim_time=12.5,
    )
    fields.update(overrides)
    return FindingRecord(**fields)


def _populate(backend) -> None:
    """One scripted operation history, applied to any backend."""
    backend.add_entry(_entry(["CLOSED", "CLOSED>OPEN"], packet_count=3))
    backend.add_entry(_entry(["CLOSED"], packet_count=1, ident=20))
    backend.add_entry(_entry(["OPEN"], packet_count=2, ident=30))
    backend.record_finding(_record())
    backend.record_finding(_record())  # duplicate: occurrences -> 2
    backend.record_finding(_record(vendor="Apple", state="OPEN"))
    backend.record_finding(
        _record(vulnerability_class="Crash", target="rfcomm")
    )


class TestParity:
    """Same history in, same answers out — on every backend pair."""

    @pytest.fixture()
    def pair(self, tmp_path):
        backends = {
            name: open_backend(tmp_path / name, name) for name in BACKENDS
        }
        for backend in backends.values():
            _populate(backend)
        return backends

    def test_entries_identical(self, pair):
        file_entries = pair["file"].entries()
        assert file_entries == pair["sqlite"].entries()
        assert len(file_entries) == 3

    def test_entries_byte_identical(self, pair):
        file_lines = [entry_line(e) for e in pair["file"].entries()]
        sqlite_lines = [entry_line(e) for e in pair["sqlite"].entries()]
        assert file_lines == sqlite_lines

    def test_coverage_and_frequencies_identical(self, pair):
        assert pair["file"].coverage() == pair["sqlite"].coverage()
        assert (
            pair["file"].state_frequencies()
            == pair["sqlite"].state_frequencies()
        )

    def test_finding_records_identical(self, pair):
        file_records = pair["file"].finding_records()
        assert file_records == pair["sqlite"].finding_records()
        assert len(file_records) == 3
        by_vendor = {record.vendor: record for record in file_records}
        assert by_vendor["Google"].occurrences == 2

    def test_query_findings_identical(self, pair):
        for filters in (
            {},
            {"vendor": "Google"},
            {"vulnerability_class": "Crash"},
            {"target": "rfcomm"},
            {"state": "OPEN"},
            {"vendor": "Google", "vulnerability_class": "DoS"},
            {"vendor": "Nokia"},
        ):
            file_hits = pair["file"].query_findings(**filters)
            assert file_hits == pair["sqlite"].query_findings(**filters), filters

    def test_minimize_and_canonical_identical(self, pair):
        file_canonical = pair["file"].minimize()
        sqlite_canonical = pair["sqlite"].minimize()
        assert file_canonical == sqlite_canonical
        assert pair["file"].canonical_entries() == pair[
            "sqlite"
        ].canonical_entries()

    def test_stats_identical(self, pair):
        for backend in pair.values():
            backend.minimize()
        assert pair["file"].stats() == pair["sqlite"].stats()
        stats = pair["file"].stats()
        assert stats.entry_count == 3
        assert stats.packet_total == 6
        assert stats.finding_count == 3
        assert stats.occurrence_total == 4
        assert not stats.canonical_stale

    def test_garbage_dictionary_identical(self, pair):
        trigger = configuration_request(dcid=0x0999, identifier=2)
        trigger.garbage = b"\xd2\x3a\x91\x0e"
        record = _record(
            vendor="Samsung", packets=tuple([trigger.encode().hex()])
        )
        for backend in pair.values():
            backend.record_finding(record)
        assert (
            pair["file"].garbage_dictionary()
            == pair["sqlite"].garbage_dictionary()
            == (b"\xd2\x3a\x91\x0e",)
        )


@pytest.mark.parametrize("name", BACKENDS)
class TestBackendBasics:
    def test_cold_corpus_reads_empty(self, tmp_path, name):
        backend = open_backend(tmp_path / "corpus", name)
        assert not backend.exists()
        assert backend.entries() == []
        assert backend.entry_count() == 0
        assert backend.coverage() == frozenset()
        assert backend.finding_records() == []
        assert backend.canonical_entries() == []
        assert not backend.canonical_is_stale()
        assert backend.stats().entry_count == 0

    def test_add_entry_idempotent(self, tmp_path, name):
        backend = open_backend(tmp_path, name)
        entry = _entry(["CLOSED"])
        assert backend.add_entry(entry)
        assert not backend.add_entry(entry)
        assert backend.entry_count() == 1

    def test_sha256_sized_seed_round_trips(self, tmp_path, name):
        """Fleet campaign seeds are SHA-256-derived integers, far past
        64 bits — both backends must store them losslessly."""
        backend = open_backend(tmp_path, name)
        entry = dataclasses.replace(_entry(["CLOSED"]), seed=2**255 + 19)
        assert backend.add_entry(entry)
        assert backend.entries() == [entry]

    def test_new_then_duplicate(self, tmp_path, name):
        backend = open_backend(tmp_path, name)
        assert backend.record_finding(_record()) == "new"
        assert backend.record_finding(_record()) == "duplicate"
        assert backend.finding_count() == 1
        assert backend.finding_records()[0].occurrences == 2

    def test_duplicate_keeps_first_record(self, tmp_path, name):
        backend = open_backend(tmp_path, name)
        backend.record_finding(_record(sim_time=1.0))
        backend.record_finding(
            dataclasses.replace(_record(), sim_time=99.0, device_id="D4")
        )
        record = backend.finding_records()[0]
        assert record.sim_time == 1.0
        assert record.device_id == "D2"
        assert record.occurrences == 2


@pytest.mark.parametrize("name", BACKENDS)
class TestConcurrency:
    """Exact counts and no lost writes under a thread-pool hammer."""

    def test_concurrent_bucket_bumps_count_exactly(self, tmp_path, name):
        backend = open_backend(tmp_path, name)
        workers, per_worker = 8, 25

        def hammer(_worker: int) -> None:
            # A fresh handle per worker, like separate fleet shards.
            local = open_backend(tmp_path, name)
            try:
                for _ in range(per_worker):
                    local.record_finding(_record())
            finally:
                local.close()

        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(hammer, range(workers)))
        records = backend.finding_records()
        assert len(records) == 1
        assert records[0].occurrences == workers * per_worker

    def test_concurrent_entry_adds_lose_nothing(self, tmp_path, name):
        backend = open_backend(tmp_path, name)
        entries = [
            _entry(["CLOSED"], packet_count=1 + (i % 4), ident=10 * i + 1)
            for i in range(40)
        ]

        def add_all(offset: int) -> None:
            local = open_backend(tmp_path, name)
            try:
                # Every worker adds every entry, rotated: maximal races
                # on the same content-addressed IDs.
                for i in range(len(entries)):
                    local.add_entry(entries[(i + offset) % len(entries)])
            finally:
                local.close()

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(add_all, range(8)))
        stored = backend.entries()
        assert sorted(e.entry_id for e in stored) == sorted(
            e.entry_id for e in entries
        )


@pytest.mark.parametrize("name", BACKENDS)
class TestStaleness:
    def test_fresh_after_minimize(self, tmp_path, name):
        store = CorpusStore(tmp_path, backend=name)
        store.add(_entry(["CLOSED"]))
        canonical = store.minimize()
        assert not store.canonical_is_stale()
        assert store.seed_entries() == canonical

    def test_stale_after_new_entry(self, tmp_path, name):
        store = CorpusStore(tmp_path, backend=name)
        store.add(_entry(["CLOSED"], packet_count=2))
        store.minimize()
        store.add(_entry(["OPEN"], ident=40))
        assert store.canonical_is_stale()
        # Guided seeding must fall back to the live entry set.
        assert store.seed_entries() == store.entries()

    def test_no_canonical_is_not_stale(self, tmp_path, name):
        store = CorpusStore(tmp_path, backend=name)
        store.add(_entry(["CLOSED"]))
        assert not store.canonical_is_stale()
        assert store.seed_entries() == store.entries()


class TestFileStalenessMetadata:
    def test_missing_meta_is_conservatively_stale(self, tmp_path):
        backend = FileCorpusBackend(tmp_path)
        backend.add_entry(_entry(["CLOSED"]))
        backend.minimize()
        backend.canonical_meta_path.unlink()
        assert backend.canonical_is_stale()

    def test_corrupt_meta_is_conservatively_stale(self, tmp_path):
        backend = FileCorpusBackend(tmp_path)
        backend.add_entry(_entry(["CLOSED"]))
        backend.minimize()
        backend.canonical_meta_path.write_text("{]", encoding="utf-8")
        assert backend.canonical_is_stale()


class TestFileLeftoverTempFiles:
    """A writer killed between write and rename leaves a temp file that
    no reader may pick up — whether the kill tore it or not."""

    @staticmethod
    def _kill_writes(patch, mode: str) -> None:
        import os
        from pathlib import Path

        real_write_text = Path.write_text

        def torn_write(path, text, *args, **kwargs):
            real_write_text(path, text[: len(text) // 2], *args, **kwargs)
            raise OSError("killed mid-write")

        def never_published(src, dst, *args, **kwargs):
            raise OSError("killed before publishing")

        if mode == "torn":
            patch.setattr(Path, "write_text", torn_write)
        else:
            patch.setattr(os, "replace", never_published)

    def test_leftovers_change_no_read(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        root = tmp_path / "corpus"
        backend = FileCorpusBackend(root)
        _populate(backend)

        def observed():
            assert main(["corpus", "stats", str(root)]) == 0
            return (
                backend.entries(),
                backend.finding_records(),
                backend.entry_count(),
                backend.finding_count(),
                capsys.readouterr().out,
            )

        def files():
            return {
                path.name
                for directory in (backend.entries_dir, backend.findings_dir)
                for path in directory.iterdir()
                if path.suffix != ".lock"
            }

        before, files_before = observed(), files()
        for ident, mode in ((40, "torn"), (50, "whole")):
            with monkeypatch.context() as patch:
                self._kill_writes(patch, mode)
                with pytest.raises(OSError, match="killed"):
                    backend.add_entry(_entry(["OPEN>CLOSED"], ident=ident))
                with pytest.raises(OSError, match="killed"):
                    backend.record_finding(_record(trigger_hash=f"killed-{mode}"))
        assert observed() == before
        # One leftover per killed write: an entry and a bucket, each torn
        # once and left whole once.
        assert len(files() - files_before) == 4


class TestSqliteIncrementalMinimize:
    def test_incremental_matches_full_scan(self, tmp_path):
        sqlite = SqliteCorpusBackend(tmp_path / "sqlite")
        file = FileCorpusBackend(tmp_path / "file")
        first = [
            _entry(["CLOSED", "OPEN"], packet_count=5),
            _entry(["CLOSED"], packet_count=2, ident=20),
        ]
        for entry in first:
            sqlite.add_entry(entry)
            file.add_entry(entry)
        assert sqlite.minimize() == file.minimize()
        # Grow the corpus: a cheaper CLOSED witness and a new token.
        second = [
            _entry(["CLOSED"], packet_count=1, ident=40),
            _entry(["WAIT_CONFIG"], packet_count=3, ident=60),
        ]
        for entry in second:
            sqlite.add_entry(entry)
            file.add_entry(entry)
        # SQLite folds only the two new rows into its stored winner map;
        # the answer must still equal the file backend's full re-scan.
        assert sqlite.minimize() == file.minimize()
        canonical = sqlite.canonical_entries()
        # The new 1-packet CLOSED witness must have displaced the old
        # 2-packet one in the stored winner map.
        closed_costs = [
            entry.packet_count
            for entry in canonical
            if "CLOSED" in entry.covered
        ]
        assert min(closed_costs) == 1
        assert 2 not in closed_costs

    def test_cursor_advances_past_scanned_rows(self, tmp_path):
        backend = SqliteCorpusBackend(tmp_path)
        backend.add_entry(_entry(["CLOSED"]))
        backend.add_entry(_entry(["OPEN"], ident=20))
        backend.minimize()
        connection = backend._connect(create=False)
        cursor = int(backend._meta(connection, "cmin_last_seq"))
        max_seq = connection.execute(
            "SELECT MAX(seq) FROM entries"
        ).fetchone()[0]
        assert cursor == max_seq

    def test_minimize_without_write_leaves_cursor(self, tmp_path):
        backend = SqliteCorpusBackend(tmp_path)
        backend.add_entry(_entry(["CLOSED"]))
        backend.minimize(write=False)
        connection = backend._connect(create=False)
        assert backend._meta(connection, "cmin_last_seq") is None
        assert backend.canonical_entries() == []


class TestMigration:
    def _file_corpus(self, root):
        backend = FileCorpusBackend(root)
        _populate(backend)
        backend.minimize()
        return backend

    def test_migrate_round_trips_byte_equal(self, tmp_path):
        source = self._file_corpus(tmp_path)
        before_lines = [entry_line(e) for e in source.entries()]
        before_records = [record_to_dict(r) for r in source.finding_records()]
        before_canonical = [e.entry_id for e in source.canonical_entries()]

        report = migrate_to_sqlite(tmp_path)
        assert detect_backend_name(tmp_path) == "sqlite"
        assert report.entries == 3
        assert report.findings == 3
        migrated = open_backend(tmp_path)
        assert migrated.name == "sqlite"
        assert [entry_line(e) for e in migrated.entries()] == before_lines
        assert [
            record_to_dict(r) for r in migrated.finding_records()
        ] == before_records
        assert [
            e.entry_id for e in migrated.canonical_entries()
        ] == before_canonical
        assert not migrated.canonical_is_stale()

    def test_migrate_removes_source_layout(self, tmp_path):
        self._file_corpus(tmp_path)
        migrate_to_sqlite(tmp_path)
        assert not (tmp_path / "entries").exists()
        assert not (tmp_path / "findings").exists()
        assert not (tmp_path / "corpus.jsonl").exists()

    def test_migrate_twice_raises(self, tmp_path):
        self._file_corpus(tmp_path)
        migrate_to_sqlite(tmp_path)
        with pytest.raises(MigrationError, match="already"):
            migrate_to_sqlite(tmp_path)

    def test_migrate_empty_directory_creates_database(self, tmp_path):
        report = migrate_to_sqlite(tmp_path / "fresh")
        assert report.entries == 0
        assert detect_backend_name(tmp_path / "fresh") == "sqlite"

    def test_facades_work_identically_after_migration(self, tmp_path):
        self._file_corpus(tmp_path)
        before_store = CorpusStore(tmp_path)
        before = (
            before_store.entries(),
            before_store.stats(),
            FindingDatabase(tmp_path).records(),
        )
        migrate_to_sqlite(tmp_path)
        after_store = CorpusStore(tmp_path)
        after = (
            after_store.entries(),
            after_store.stats(),
            FindingDatabase(tmp_path).records(),
        )
        assert before == after

    def test_preserves_stale_flag(self, tmp_path):
        backend = FileCorpusBackend(tmp_path)
        backend.add_entry(_entry(["CLOSED"]))
        backend.minimize()
        backend.add_entry(_entry(["OPEN"], ident=20))
        assert backend.canonical_is_stale()
        migrate_to_sqlite(tmp_path)
        assert open_backend(tmp_path).canonical_is_stale()


class TestCampaignWriteBackParity:
    def test_identical_campaign_writes_identical_corpora(self, tmp_path):
        """The campaign write-back path works unchanged on either
        backend and produces the same corpus either way."""
        from repro.core.config import FuzzConfig
        from repro.testbed.profiles import D2
        from repro.testbed.session import FuzzSession

        file_dir = tmp_path / "file"
        sqlite_dir = tmp_path / "sqlite"
        # Flip autodetection for the second directory up front; the
        # session itself is backend-oblivious.
        migrate_to_sqlite(sqlite_dir)
        for root in (file_dir, sqlite_dir):
            report = FuzzSession(
                D2, FuzzConfig(max_packets=50_000), corpus_dir=str(root)
            ).run()
            assert report.vulnerability_found
        file_store = CorpusStore(file_dir)
        sqlite_store = CorpusStore(sqlite_dir)
        assert file_store.backend.name == "file"
        assert sqlite_store.backend.name == "sqlite"
        assert file_store.entries() == sqlite_store.entries()
        assert (
            FindingDatabase(file_dir).records()
            == FindingDatabase(sqlite_dir).records()
        )


class TestAutodetection:
    def test_default_is_file(self, tmp_path):
        assert detect_backend_name(tmp_path / "nope") == "file"
        assert open_backend(tmp_path).name == "file"

    def test_sqlite_database_wins(self, tmp_path):
        SqliteCorpusBackend(tmp_path).add_entry(_entry(["CLOSED"]))
        assert detect_backend_name(tmp_path) == "sqlite"
        assert CorpusStore(tmp_path).backend.name == "sqlite"
        assert FindingDatabase(tmp_path).backend.name == "sqlite"

    def test_unknown_name_raises(self, tmp_path):
        with pytest.raises(ValueError, match="unknown corpus backend"):
            open_backend(tmp_path, "parquet")

    def test_backend_instance_passes_through(self, tmp_path):
        backend = FileCorpusBackend(tmp_path)
        store = CorpusStore(tmp_path, backend=backend)
        database = FindingDatabase(tmp_path, backend=backend)
        assert store.backend is backend
        assert database.backend is backend


class TestSqliteQueriesUseIndex:
    def test_query_plan_hits_findings_index(self, tmp_path):
        backend = SqliteCorpusBackend(tmp_path)
        backend.record_finding(_record())
        connection = backend._connect(create=False)
        plan = "".join(
            row[-1]
            for row in connection.execute(
                "EXPLAIN QUERY PLAN SELECT data, occurrences FROM findings"
                " WHERE target = ? AND vendor = ?",
                ("l2cap", "Google"),
            )
        )
        assert "idx_findings_query" in plan

    def test_export_matches_file_backend(self, tmp_path):
        """CorpusStore.export_jsonl is backend-independent and atomic."""
        for name in BACKENDS:
            store = CorpusStore(tmp_path / name, backend=name)
            store.add(_entry(["CLOSED", "OPEN"], packet_count=2))
            store.add(_entry(["CLOSED"], ident=20))
            out = tmp_path / f"{name}.jsonl"
            assert store.export_jsonl(out) == 2
        file_dump = (tmp_path / "file.jsonl").read_text(encoding="utf-8")
        sqlite_dump = (tmp_path / "sqlite.jsonl").read_text(encoding="utf-8")
        assert file_dump == sqlite_dump
        for line in file_dump.splitlines():
            json.loads(line)
