"""Corpus database tests: model parity, concurrency, layout.

The contract under test: the database answers every query exactly as an
in-memory reference model of the same operation history does,
occurrence counts stay exact under concurrent writers, a duplicate
bucket keeps the same record whatever the write order, and a directory
in the legacy JSON-file layout is refused rather than shadowed.
"""

from __future__ import annotations

import dataclasses
import json
import sqlite3
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.corpus.backend import open_backend
from repro.corpus.entry import entry_from_packets, entry_line
from repro.corpus.findings import (
    FindingRecord,
    record_to_dict,
    trigger_hash,
)
from repro.corpus.sqlite_backend import (
    SQLITE_FILE,
    CorpusStats,
    SqliteCorpusBackend,
    cmin_update,
)
from repro.errors import LegacyCorpusError
from repro.l2cap.packets import (
    configuration_request,
    connection_request,
    echo_request,
)


def state_frequencies_of(entries) -> dict[str, int]:
    """Per-state coverage counts over an entry list (transitions —
    tokens carrying ``>`` — never count towards the state prior)."""
    counts: dict[str, int] = {}
    for entry in entries:
        for token in entry.covered:
            if ">" not in token:
                counts[token] = counts.get(token, 0) + 1
    return counts


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


def full_scan_canonical(entries) -> list:
    """Full-scan cmin over *entries*, sorted by entry ID: the reference
    the incremental ``minimize`` must match."""
    winners: dict[str, tuple[int, str]] = {}
    by_id = cmin_update(winners, entries)
    return sorted(
        {by_id[entry_id] for _, entry_id in winners.values()},
        key=lambda entry: entry.entry_id,
    )


def _findings_table(root) -> list[tuple]:
    with sqlite3.connect(root / SQLITE_FILE) as connection:
        return connection.execute(
            "SELECT bucket_id, occurrences, state, data FROM findings"
            " ORDER BY bucket_id"
        ).fetchall()


class Model:
    """In-memory reference: what every query must answer."""

    def __init__(self) -> None:
        self.entries_by_id: dict = {}
        self.buckets: dict = {}

    def add_entry(self, entry) -> bool:
        if entry.entry_id in self.entries_by_id:
            return False
        self.entries_by_id[entry.entry_id] = entry
        return True

    @staticmethod
    def rank(record) -> tuple:
        data = record_to_dict(record)
        return (
            data["sim_time"],
            data["device_id"],
            json.dumps(data["packets"], separators=(",", ":")),
            json.dumps(data, sort_keys=True),
        )

    def record_finding(self, record) -> str:
        seen = self.buckets.get(record.bucket_id)
        if seen is None:
            self.buckets[record.bucket_id] = record
            return "new"
        kept = record if self.rank(record) < self.rank(seen) else seen
        self.buckets[record.bucket_id] = dataclasses.replace(
            kept, occurrences=seen.occurrences + record.occurrences
        )
        return "duplicate"

    def entries(self) -> list:
        return [self.entries_by_id[key] for key in sorted(self.entries_by_id)]

    def coverage(self) -> frozenset:
        return frozenset(
            token for entry in self.entries() for token in entry.covered
        )

    def state_frequencies(self) -> dict:
        return state_frequencies_of(self.entries())

    def finding_records(self) -> list:
        return [self.buckets[key] for key in sorted(self.buckets)]

    def query_findings(
        self, target=None, vendor=None, vulnerability_class=None, state=None
    ) -> list:
        return [
            record
            for record in self.finding_records()
            if target in (None, record.target)
            and vendor in (None, record.vendor)
            and vulnerability_class in (None, record.vulnerability_class)
            and state in (None, record.state)
        ]

    def minimize(self) -> list:
        return full_scan_canonical(self.entries())

    def garbage_dictionary(self) -> tuple:
        return tuple(
            sorted(
                {
                    bytes(packet.garbage)
                    for record in self.finding_records()
                    for packet in record.decode_packets()
                    if packet.garbage
                }
            )
        )

    def stats(self, canonical_count: int) -> CorpusStats:
        entries = self.entries()
        tokens = self.coverage()
        records = self.finding_records()
        return CorpusStats(
            entry_count=len(entries),
            packet_total=sum(entry.packet_count for entry in entries),
            canonical_count=canonical_count,
            canonical_stale=False,
            state_tokens=tuple(sorted(t for t in tokens if ">" not in t)),
            transition_tokens=tuple(sorted(t for t in tokens if ">" in t)),
            state_frequencies=self.state_frequencies(),
            finding_count=len(records),
            occurrence_total=sum(record.occurrences for record in records),
        )


def _populate(backend) -> None:
    """One scripted operation history, applied to the model or the store."""
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
    """Same history in, the reference model's answers out."""

    @pytest.fixture()
    def pair(self, tmp_path):
        pair = {"model": Model(), "sqlite": open_backend(tmp_path)}
        for backend in pair.values():
            _populate(backend)
        return pair

    def test_entries_identical(self, pair):
        model_entries = pair["model"].entries()
        assert model_entries == pair["sqlite"].entries()
        assert len(model_entries) == 3

    def test_entries_byte_identical(self, pair):
        model_lines = [entry_line(e) for e in pair["model"].entries()]
        sqlite_lines = [entry_line(e) for e in pair["sqlite"].entries()]
        assert model_lines == sqlite_lines

    def test_coverage_and_frequencies_identical(self, pair):
        assert pair["model"].coverage() == pair["sqlite"].coverage()
        assert (
            pair["model"].state_frequencies()
            == pair["sqlite"].state_frequencies()
        )

    def test_finding_records_identical(self, pair):
        model_records = pair["model"].finding_records()
        assert model_records == pair["sqlite"].finding_records()
        assert len(model_records) == 3
        by_vendor = {record.vendor: record for record in model_records}
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
            model_hits = pair["model"].query_findings(**filters)
            assert model_hits == pair["sqlite"].query_findings(**filters), filters

    def test_minimize_and_canonical_identical(self, pair):
        model_canonical = pair["model"].minimize()
        assert pair["sqlite"].minimize() == model_canonical
        assert pair["sqlite"].canonical_entries() == model_canonical

    def test_stats_identical(self, pair):
        canonical = pair["sqlite"].minimize()
        stats = pair["sqlite"].stats()
        assert stats == pair["model"].stats(len(canonical))
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
            pair["model"].garbage_dictionary()
            == pair["sqlite"].garbage_dictionary()
            == (b"\xd2\x3a\x91\x0e",)
        )


class TestBackendBasics:
    def test_cold_corpus_reads_empty(self, tmp_path):
        backend = open_backend(tmp_path / "corpus")
        assert not backend.exists()
        assert backend.entries() == []
        assert backend.entry_count() == 0
        assert backend.coverage() == frozenset()
        assert backend.finding_records() == []
        assert backend.canonical_entries() == []
        assert not backend.canonical_is_stale()
        assert backend.stats().entry_count == 0

    def test_add_entry_idempotent(self, tmp_path):
        backend = open_backend(tmp_path)
        entry = _entry(["CLOSED"])
        assert backend.add_entry(entry)
        assert not backend.add_entry(entry)
        assert backend.entry_count() == 1

    def test_sha256_sized_seed_round_trips(self, tmp_path):
        """Fleet campaign seeds are SHA-256-derived integers, far past
        64 bits — they must be stored losslessly."""
        backend = open_backend(tmp_path)
        entry = dataclasses.replace(_entry(["CLOSED"]), seed=2**255 + 19)
        assert backend.add_entry(entry)
        assert backend.entries() == [entry]

    def test_new_then_duplicate(self, tmp_path):
        backend = open_backend(tmp_path)
        assert backend.record_finding(_record()) == "new"
        assert backend.record_finding(_record()) == "duplicate"
        assert backend.finding_count() == 1
        assert backend.finding_records()[0].occurrences == 2

    def test_duplicate_keeps_first_record(self, tmp_path):
        backend = open_backend(tmp_path)
        backend.record_finding(_record(sim_time=1.0))
        backend.record_finding(
            dataclasses.replace(_record(), sim_time=99.0, device_id="D4")
        )
        record = backend.finding_records()[0]
        assert record.sim_time == 1.0
        assert record.device_id == "D2"
        assert record.occurrences == 2


class TestDeterministicFinding:
    """A bucket keeps its lowest-ranked record, whatever the write order."""

    RECORDS = (
        _record(sim_time=40.0, device_id="D1", state="OPEN"),
        _record(sim_time=12.5, device_id="D2", crash_id=None),
        _record(sim_time=12.5, device_id="D1", occurrences=3),
    )

    def test_same_row_in_every_order(self, tmp_path):
        orders = (
            self.RECORDS,
            tuple(reversed(self.RECORDS)),
            self.RECORDS[1:] + self.RECORDS[:1],
        )
        tables = []
        for number, order in enumerate(orders):
            root = tmp_path / str(number)
            backend = open_backend(root)
            statuses = [backend.record_finding(record) for record in order]
            backend.close()
            assert statuses == ["new", "duplicate", "duplicate"]
            tables.append(_findings_table(root))
        assert tables[0] == tables[1] == tables[2]
        ((_, occurrences, state, data),) = tables[0]
        assert occurrences == 5
        # (sim_time, device_id, ...) ranks D1 at 12.5 first; its state
        # column moves with its data.
        assert json.loads(data)["device_id"] == "D1"
        assert json.loads(data)["sim_time"] == 12.5
        assert state == "WAIT_CONFIG"

    def test_batched_and_single_writes_agree(self, tmp_path):
        single = open_backend(tmp_path / "single")
        for record in self.RECORDS:
            single.record_finding(record)
        batched = open_backend(tmp_path / "batched")
        counts = batched.ingest(
            [((), self.RECORDS[:2]), ((), self.RECORDS[2:])]
        )
        assert counts == [
            {"entries_added": 0, "findings_new": 1, "findings_duplicate": 1},
            {"entries_added": 0, "findings_new": 0, "findings_duplicate": 1},
        ]
        assert _findings_table(tmp_path / "single") == _findings_table(
            tmp_path / "batched"
        )


class TestConcurrency:
    """Exact counts and no lost writes under a thread-pool hammer."""

    def test_concurrent_bucket_bumps_count_exactly(self, tmp_path):
        backend = open_backend(tmp_path)
        workers, per_worker = 8, 25

        def hammer(_worker: int) -> None:
            # A fresh handle per worker, like separate fleet shards.
            local = open_backend(tmp_path)
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

    def test_concurrent_entry_adds_lose_nothing(self, tmp_path):
        backend = open_backend(tmp_path)
        entries = [
            _entry(["CLOSED"], packet_count=1 + (i % 4), ident=10 * i + 1)
            for i in range(40)
        ]

        def add_all(offset: int) -> None:
            local = open_backend(tmp_path)
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


class TestStaleness:
    def test_fresh_after_minimize(self, tmp_path):
        store = open_backend(tmp_path)
        store.add_entry(_entry(["CLOSED"]))
        canonical = store.minimize()
        assert not store.canonical_is_stale()
        assert store.seed_entries() == canonical

    def test_stale_after_new_entry(self, tmp_path):
        store = open_backend(tmp_path)
        store.add_entry(_entry(["CLOSED"], packet_count=2))
        store.minimize()
        store.add_entry(_entry(["OPEN"], ident=40))
        assert store.canonical_is_stale()
        # Guided seeding must fall back to the live entry set.
        assert store.seed_entries() == store.entries()

    def test_no_canonical_is_not_stale(self, tmp_path):
        store = open_backend(tmp_path)
        store.add_entry(_entry(["CLOSED"]))
        assert not store.canonical_is_stale()
        assert store.seed_entries() == store.entries()


class TestSqliteIncrementalMinimize:
    def test_incremental_matches_full_scan(self, tmp_path):
        sqlite = SqliteCorpusBackend(tmp_path / "sqlite")
        first = [
            _entry(["CLOSED", "OPEN"], packet_count=5),
            _entry(["CLOSED"], packet_count=2, ident=20),
        ]
        for entry in first:
            sqlite.add_entry(entry)
        assert sqlite.minimize() == full_scan_canonical(first)
        # Grow the corpus: a cheaper CLOSED witness and a new token.
        second = [
            _entry(["CLOSED"], packet_count=1, ident=40),
            _entry(["WAIT_CONFIG"], packet_count=3, ident=60),
        ]
        for entry in second:
            sqlite.add_entry(entry)
        # SQLite folds only the two new rows into its stored winner map;
        # the answer must still equal a full re-scan.
        assert sqlite.minimize() == full_scan_canonical(first + second)
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


class TestCampaignWriteBackParity:
    def test_identical_campaign_writes_identical_corpora(self, tmp_path):
        """The session write-back (one campaign) and the shard write-back
        (``record_campaigns``) store the same campaign identically."""
        from repro.core.config import FuzzConfig
        from repro.corpus.store import record_campaigns
        from repro.testbed.profiles import D2
        from repro.testbed.session import FuzzSession

        session_dir = tmp_path / "session"
        shard_dir = tmp_path / "shard"
        report = FuzzSession(
            D2, FuzzConfig(max_packets=50_000), corpus_dir=str(session_dir)
        ).run()
        assert report.vulnerability_found
        session = FuzzSession(D2, FuzzConfig(max_packets=50_000))
        (counts,) = record_campaigns(
            shard_dir, [(D2, session.fuzzer, session.run())]
        )
        assert counts["findings_new"] == 1
        assert open_backend(session_dir).entries() == open_backend(
            shard_dir
        ).entries()
        assert counts["entries_added"] == open_backend(shard_dir).entry_count()
        assert _findings_table(session_dir) == _findings_table(shard_dir)


class TestAutodetection:
    """The directory layout decides how a corpus opens: a database
    always wins; the legacy JSON layout alone is refused."""

    @pytest.mark.parametrize("legacy_dir", ["entries", "findings"])
    def test_legacy_layout_without_database_raises(self, tmp_path, legacy_dir):
        (tmp_path / legacy_dir).mkdir()
        with pytest.raises(LegacyCorpusError, match="repro corpus migrate"):
            open_backend(tmp_path)
        assert not (tmp_path / SQLITE_FILE).exists()

    def test_sqlite_database_wins(self, tmp_path):
        SqliteCorpusBackend(tmp_path).add_entry(_entry(["CLOSED"]))
        (tmp_path / "entries").mkdir()
        assert open_backend(tmp_path).entry_count() == 1
        assert open_backend(tmp_path).finding_count() == 0


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
        """export_jsonl writes, in entry-ID order, each
        entry's canonical line: the bytes a file-layout entry held."""
        entries = [
            _entry(["CLOSED", "OPEN"], packet_count=2),
            _entry(["CLOSED"], ident=20),
        ]
        store = open_backend(tmp_path / "corpus")
        for entry in entries:
            store.add_entry(entry)
        out = tmp_path / "export.jsonl"
        assert store.export_jsonl(out) == 2
        expected = "".join(
            entry_line(entry)
            for entry in sorted(entries, key=lambda entry: entry.entry_id)
        )
        assert out.read_text(encoding="utf-8") == expected
        for line in expected.splitlines():
            json.loads(line)
