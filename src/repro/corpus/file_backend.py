"""The original file-layout corpus backend.

Layout of a file-backed corpus directory::

    corpus/
    ├── entries/<content-hash>.json   one JSONL-style line per entry
    ├── findings/<bucket>.json        persistent finding database
    ├── corpus.jsonl                  canonical minimised corpus (cmin)
    └── corpus.meta.json              canonical freshness marker

Entries are written write-once under their content-hash ID with an
atomic rename, which makes the store safe to share between fleet
workers (process or thread pools) without locking: two workers that
record the same sequence race to publish byte-identical files, and
whoever loses the race simply finds the entry already present. The same
property makes ingestion idempotent across repeated runs.

Finding buckets are the one read-modify-write in the layout (an
occurrence bump rewrites the bucket file), so each bump holds an
exclusive per-bucket ``flock`` for the read→increment→publish cycle —
occurrence counts are exact under concurrent workers, whether they are
threads of one process or separate processes (``flock`` excludes per
open file description, so both compose).

``corpus.meta.json`` records the entry census — ``(entry count, max
entry ID)`` — at the moment ``minimize`` wrote the canonical corpus;
:meth:`FileCorpusBackend.canonical_is_stale` compares it against the
live census so consumers can tell a fresh canonical set from one that
predates newer entries.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import threading
from pathlib import Path

from repro.corpus.backend import CorpusBackend, cmin_update
from repro.corpus.entry import CorpusEntry, dict_to_entry, entry_to_dict
from repro.corpus.findings import (
    FindingRecord,
    dict_to_record,
    record_to_dict,
)
from repro.durability import atomic_write

try:  # pragma: no cover - fcntl is always present on the target platform
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

ENTRIES_DIR = "entries"
FINDINGS_DIR = "findings"
CANONICAL_FILE = "corpus.jsonl"
CANONICAL_META_FILE = "corpus.meta.json"

#: Process-local fallback locks (per bucket path) when flock is missing.
_LOCAL_LOCKS: dict[str, threading.Lock] = {}
_LOCAL_LOCKS_GUARD = threading.Lock()


@contextlib.contextmanager
def _exclusive_lock(lock_path: Path):
    """Hold an exclusive advisory lock on *lock_path*.

    ``flock`` locks the open file description, so two threads of one
    process (each with its own fd) exclude each other just like two
    processes do. Without ``fcntl`` the fallback is a process-local
    mutex — cross-process exclusion then matches the pre-lock
    behaviour, which only POSIX platforms ever relied on.
    """
    if fcntl is None:  # pragma: no cover - non-POSIX fallback
        with _LOCAL_LOCKS_GUARD:
            lock = _LOCAL_LOCKS.setdefault(str(lock_path), threading.Lock())
        with lock:
            yield
        return
    fd = os.open(lock_path, os.O_CREAT | os.O_RDWR, 0o644)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        fcntl.flock(fd, fcntl.LOCK_UN)
        os.close(fd)


def entry_line(entry: CorpusEntry) -> str:
    """The canonical one-line JSON rendering of *entry*.

    This exact string is what both backends persist and export, which
    is what makes migration byte-equal by construction.
    """
    return json.dumps(entry_to_dict(entry), sort_keys=True) + "\n"


class FileCorpusBackend(CorpusBackend):
    """Directory-of-JSON-files backend (the migration-free default)."""

    name = "file"

    # -- paths --------------------------------------------------------------------

    @property
    def entries_dir(self) -> Path:
        return self.root / ENTRIES_DIR

    @property
    def findings_dir(self) -> Path:
        return self.root / FINDINGS_DIR

    @property
    def canonical_path(self) -> Path:
        return self.root / CANONICAL_FILE

    @property
    def canonical_meta_path(self) -> Path:
        return self.root / CANONICAL_META_FILE

    def exists(self) -> bool:
        return (
            self.entries_dir.is_dir()
            or self.findings_dir.is_dir()
            or self.canonical_path.is_file()
        )

    # -- entries ------------------------------------------------------------------

    def add_entry(self, entry: CorpusEntry) -> bool:
        """Content-addressed atomic publish; concurrent adders converge."""
        self.entries_dir.mkdir(parents=True, exist_ok=True)
        path = self.entries_dir / f"{entry.entry_id}.json"
        if path.exists():
            return False
        atomic_write(path, entry_line(entry))
        return True

    def entries(self) -> list[CorpusEntry]:
        if not self.entries_dir.is_dir():
            return []
        return [
            dict_to_entry(json.loads(path.read_text(encoding="utf-8")))
            for path in sorted(self.entries_dir.glob("*.json"))
        ]

    def entry_count(self) -> int:
        if not self.entries_dir.is_dir():
            return 0
        return sum(1 for _ in self.entries_dir.glob("*.json"))

    def coverage(self) -> frozenset[str]:
        covered: set[str] = set()
        for entry in self.entries():
            covered.update(entry.covered)
        return frozenset(covered)

    def state_frequencies(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for entry in self.entries():
            for token in entry.covered:
                if ">" not in token:
                    counts[token] = counts.get(token, 0) + 1
        return counts

    # -- canonical corpus ---------------------------------------------------------

    def _census(self, entries: list[CorpusEntry]) -> tuple[int, str]:
        """Freshness fingerprint of an entry set: (count, max ID)."""
        max_id = max((entry.entry_id for entry in entries), default="")
        return (len(entries), max_id)

    def minimize(self, write: bool = True) -> list[CorpusEntry]:
        """Full-scan ``cmin``: cheapest witness per token, deduplicated."""
        entries = self.entries()
        winners: dict[str, tuple[int, str]] = {}
        by_id = cmin_update(winners, entries)
        canonical = sorted(
            {
                by_id[entry_id]
                for _, entry_id in winners.values()
            },
            key=lambda entry: entry.entry_id,
        )
        if write:
            self.root.mkdir(parents=True, exist_ok=True)
            atomic_write(
                self.canonical_path,
                "".join(entry_line(entry) for entry in canonical),
            )
            count, max_id = self._census(entries)
            atomic_write(
                self.canonical_meta_path,
                json.dumps(
                    {"entry_count": count, "max_entry_id": max_id},
                    sort_keys=True,
                )
                + "\n",
            )
        return canonical

    def canonical_entries(self) -> list[CorpusEntry]:
        if not self.canonical_path.is_file():
            return []
        return [
            dict_to_entry(json.loads(line))
            for line in self.canonical_path.read_text(encoding="utf-8").splitlines()
            if line.strip()
        ]

    def canonical_is_stale(self) -> bool:
        if not self.canonical_path.is_file():
            return False
        if not self.canonical_meta_path.is_file():
            # Pre-upgrade corpus: freshness cannot be established.
            return True
        try:
            meta = json.loads(
                self.canonical_meta_path.read_text(encoding="utf-8")
            )
            recorded = (int(meta["entry_count"]), str(meta["max_entry_id"]))
        except (ValueError, KeyError, TypeError):
            return True
        return recorded != self._census(self.entries())

    def describe_canonical(self) -> str:
        return str(self.canonical_path)

    # -- findings -----------------------------------------------------------------

    def _bucket_path(self, record: FindingRecord) -> Path:
        return self.findings_dir / f"{record.bucket_id}.json"

    def record_finding(self, record: FindingRecord) -> str:
        """Exact-count bucket upsert under a per-bucket exclusive lock.

        The lock serialises the whole read→increment→publish cycle, so
        concurrent workers bumping one bucket never drop an increment;
        distinct buckets proceed in parallel (one lock file each).
        """
        self.findings_dir.mkdir(parents=True, exist_ok=True)
        path = self._bucket_path(record)
        with _exclusive_lock(path.with_suffix(".lock")):
            if path.exists():
                seen = dict_to_record(
                    json.loads(path.read_text(encoding="utf-8"))
                )
                updated = dataclasses.replace(
                    seen, occurrences=seen.occurrences + record.occurrences
                )
                atomic_write(
                    path,
                    json.dumps(record_to_dict(updated), sort_keys=True) + "\n",
                )
                return "duplicate"
            atomic_write(
                path, json.dumps(record_to_dict(record), sort_keys=True) + "\n"
            )
            return "new"

    def finding_records(self) -> list[FindingRecord]:
        if not self.findings_dir.is_dir():
            return []
        return [
            dict_to_record(json.loads(path.read_text(encoding="utf-8")))
            for path in sorted(self.findings_dir.glob("*.json"))
        ]

    def finding_count(self) -> int:
        if not self.findings_dir.is_dir():
            return 0
        return sum(1 for _ in self.findings_dir.glob("*.json"))

    def query_findings(
        self,
        target: str | None = None,
        vendor: str | None = None,
        vulnerability_class: str | None = None,
        state: str | None = None,
    ) -> list[FindingRecord]:
        return self._filter_records(
            self.finding_records(), target, vendor, vulnerability_class, state
        )


__all__ = [
    "CANONICAL_FILE",
    "CANONICAL_META_FILE",
    "ENTRIES_DIR",
    "FINDINGS_DIR",
    "FileCorpusBackend",
    "entry_line",
]
