"""One-way import of the legacy JSON-file corpus layout.

Older releases stored a corpus as JSON files::

    corpus/
    ├── entries/<content-hash>.json   one canonical entry line each
    ├── findings/<bucket>.json        one finding bucket each
    ├── corpus.jsonl                  canonical minimised corpus (cmin)
    └── corpus.meta.json              canonical freshness census

``repro corpus migrate DIR`` reads that layout and writes it into the
directory's ``corpus.sqlite3``. The import is verification-gated:
entries and finding buckets are copied, re-read from the database and
compared — entry content byte-for-byte (the database stores the same
canonical JSON line), finding buckets record-for-record including
occurrence counts — before a single source file is removed. A failed
import deletes the new database again and leaves the JSON files in
place; a crashed import never deletes source files.

The canonical corpus (and its freshness census, when present and
readable) is carried over as-is: a stale canonical set stays stale, a
fresh one stays fresh, and one without a readable census is treated as
stale. The stored cmin cursor starts at zero, so the first
``minimize`` after the import performs one full scan and is incremental
from then on.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from repro.corpus.entry import CorpusEntry, dict_to_entry, entry_line
from repro.corpus.findings import FindingRecord, dict_to_record, record_to_dict
from repro.corpus.sqlite_backend import SqliteCorpusBackend

ENTRIES_DIR = "entries"
FINDINGS_DIR = "findings"
CANONICAL_FILE = "corpus.jsonl"
CANONICAL_META_FILE = "corpus.meta.json"


class MigrationError(RuntimeError):
    """A migration step failed; the source corpus was left in place."""


@dataclasses.dataclass(frozen=True)
class MigrationReport:
    """What one migration moved."""

    backend: str
    entries: int
    findings: int
    canonical: int
    removed_files: int

    def summary(self) -> str:
        return (
            f"migrated to {self.backend}: {self.entries} entr(ies),"
            f" {self.findings} finding bucket(s),"
            f" {self.canonical} canonical entr(ies)"
            f" ({self.removed_files} source file(s) removed)"
        )


@dataclasses.dataclass(frozen=True)
class LegacyCorpus:
    """Everything a legacy JSON-file corpus directory holds."""

    entries: list[CorpusEntry]
    records: list[FindingRecord]
    canonical: list[CorpusEntry]
    #: ``(entry count, max entry ID)`` at minimise time, if readable.
    census: tuple[int, str] | None


def read_legacy_corpus(root) -> LegacyCorpus:
    """Read the legacy layout at *root* (missing parts read as empty)."""
    root = Path(root)

    def documents(directory: str) -> list[dict]:
        return [
            json.loads(path.read_text(encoding="utf-8"))
            for path in sorted((root / directory).glob("*.json"))
        ]

    canonical_path = root / CANONICAL_FILE
    canonical = []
    if canonical_path.is_file():
        canonical = [
            dict_to_entry(json.loads(line))
            for line in canonical_path.read_text(encoding="utf-8").splitlines()
            if line.strip()
        ]
    census = None
    try:
        meta = json.loads((root / CANONICAL_META_FILE).read_text(encoding="utf-8"))
        census = (int(meta["entry_count"]), str(meta["max_entry_id"]))
    except (OSError, ValueError, KeyError, TypeError):
        pass
    return LegacyCorpus(
        entries=[dict_to_entry(data) for data in documents(ENTRIES_DIR)],
        records=[dict_to_record(data) for data in documents(FINDINGS_DIR)],
        canonical=canonical,
        census=census,
    )


def migrate_to_sqlite(root) -> MigrationReport:
    """Import the legacy JSON-file corpus at *root* into its database.

    Safe on an empty or missing directory (creates an empty database).
    Running it on a directory that already has a database raises
    instead of importing twice.

    :raises MigrationError: when the directory already has a database,
        or when post-copy verification fails (source files are then
        left untouched).
    """
    root = Path(root)
    target = SqliteCorpusBackend(root)
    if target.exists():
        raise MigrationError(f"{root} is already an SQLite corpus")
    source = read_legacy_corpus(root)
    try:
        target.ingest([(source.entries, source.records)])
        _copy_canonical(target, source)
        _verify(target, source)
    except Exception:
        # Any failure — verification or an unexpected copy error — must
        # not leave a partial database next to the intact JSON files.
        target.close()
        target.database_path.unlink(missing_ok=True)
        raise
    target.close()
    return MigrationReport(
        backend="sqlite",
        entries=len(source.entries),
        findings=len(source.records),
        canonical=len(source.canonical),
        removed_files=_remove_source_files(root),
    )


def _copy_canonical(target: SqliteCorpusBackend, source: LegacyCorpus) -> None:
    """Carry over canonical membership and its freshness census."""
    if not source.canonical:
        return
    connection = target._connect(create=True)
    with target._transaction(connection):
        connection.executemany(
            "INSERT OR IGNORE INTO canonical (entry_id) VALUES (?)",
            [(entry.entry_id,) for entry in source.canonical],
        )
        if source.census is not None:
            count, max_id = source.census
            connection.executemany(
                "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
                [
                    ("cmin_entry_count", str(count)),
                    ("cmin_max_entry_id", max_id),
                ],
            )


def _verify(target: SqliteCorpusBackend, source: LegacyCorpus) -> None:
    """Byte-equal entries, identical finding buckets, same canonical set."""
    migrated = {entry.entry_id: entry for entry in target.entries()}
    if len(migrated) != len(source.entries):
        raise MigrationError(
            f"entry count mismatch after copy:"
            f" {len(source.entries)} source, {len(migrated)} migrated"
        )
    for entry in source.entries:
        twin = migrated.get(entry.entry_id)
        if twin is None or entry_line(twin) != entry_line(entry):
            raise MigrationError(
                f"entry {entry.entry_id} did not survive migration byte-equal"
            )
    migrated_records = {
        record.bucket_id: record for record in target.finding_records()
    }
    if len(migrated_records) != len(source.records):
        raise MigrationError("finding bucket count mismatch after copy")
    for record in source.records:
        twin = migrated_records.get(record.bucket_id)
        if twin is None or record_to_dict(twin) != record_to_dict(record):
            raise MigrationError(
                f"finding bucket {record.bucket_id} did not survive migration"
            )
    if [e.entry_id for e in target.canonical_entries()] != sorted(
        entry.entry_id for entry in source.canonical
    ):
        raise MigrationError("canonical set mismatch after copy")


def _remove_source_files(root: Path) -> int:
    """Delete the imported JSON layout (entries, findings, canonical)."""
    removed = 0
    for directory in (root / ENTRIES_DIR, root / FINDINGS_DIR):
        if not directory.is_dir():
            continue
        for path in directory.iterdir():
            path.unlink()
            removed += 1
        directory.rmdir()
    for path in (root / CANONICAL_FILE, root / CANONICAL_META_FILE):
        if path.is_file():
            path.unlink()
            removed += 1
    return removed


__all__ = [
    "LegacyCorpus",
    "MigrationError",
    "MigrationReport",
    "migrate_to_sqlite",
    "read_legacy_corpus",
]
