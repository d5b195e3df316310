"""The corpus store: one SQLite (WAL) database per corpus directory.

Everything a corpus holds lives in one ``corpus.sqlite3`` database in
the corpus directory:

* ``entries`` — one row per content-addressed entry. The ``data``
  column stores the entry's canonical JSON line
  (:func:`repro.corpus.entry.entry_line`), so export is byte-equal
  to what was stored by construction; the indexed metadata
  columns (target, device, strategy, packet count) make the hot
  queries index scans.
* ``coverage`` — one row per (entry, coverage token), indexed by token:
  per-state frequencies and coverage unions are ``GROUP BY`` queries.
* ``findings`` — one row per crash bucket, indexed by
  (target, vendor, class, state). A duplicate adds its occurrences in
  an ``UPDATE … SET occurrences = occurrences + ?`` — exact under any
  number of concurrent writers — and keeps whichever of the two records
  ranks lower by ``(sim_time, device_id, packets, data)``, so the
  stored reproducer does not depend on write order.
* ``canonical`` + ``cmin_winners`` + ``meta`` — the minimised corpus,
  the per-token cheapest-witness map and the last-minimised cursor.
  ``minimize`` only scans entries inserted since the previous run and
  folds them into the stored winner map (the fold is associative, see
  :func:`cmin_update`), so repeated cmin on a growing corpus is
  O(new entries), not O(corpus).

Every write is one ``BEGIN IMMEDIATE`` transaction, retried as a unit
on lock contention (:func:`_write_with_retry`); :meth:`ingest` writes a
whole fleet shard — every campaign's entries and findings — in one.
Concurrency model: WAL journal with a generous busy timeout, one
connection per (process, thread) via thread-local storage; readers
never block writers and vice versa.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import logging
import sqlite3
import threading
import time
from collections.abc import Iterable, Sequence
from pathlib import Path

from repro.corpus.entry import CorpusEntry, dict_to_entry, entry_line
from repro.corpus.findings import FindingRecord, dict_to_record, record_to_dict
from repro.durability import atomic_write, backoff_delay

_log = logging.getLogger(__name__)

#: Database file of a corpus directory.
SQLITE_FILE = "corpus.sqlite3"

#: Schema version stamped into ``meta`` on creation.
SCHEMA_VERSION = 1

#: How long a writer waits on a locked database before giving up (ms).
BUSY_TIMEOUT_MS = 30_000

#: Total tries a write transaction gets on a locked database.
WRITE_RETRY_ATTEMPTS = 6

#: First-retry sleep (doubles per retry) and its ceiling, in seconds.
WRITE_RETRY_BASE_SECONDS = 0.02
WRITE_RETRY_CAP_SECONDS = 0.5


@dataclasses.dataclass(frozen=True)
class CorpusStats:
    """One-shot aggregate view of a corpus (the CLI ``stats`` payload)."""

    entry_count: int
    packet_total: int
    canonical_count: int
    canonical_stale: bool
    state_tokens: tuple[str, ...]
    transition_tokens: tuple[str, ...]
    state_frequencies: dict[str, int]
    finding_count: int
    occurrence_total: int


def cmin_update(
    winners: dict[str, tuple[int, str]], entries: Iterable[CorpusEntry]
) -> dict[str, CorpusEntry]:
    """Fold *entries* into a token → cheapest-witness winner map.

    *winners* maps coverage token → ``(packet_count, entry_id)`` of the
    cheapest entry seen so far; the fold is associative, which is what
    makes incremental minimisation (old winners + only-new entries)
    produce exactly the full-scan answer. Returns the entries (keyed by
    ID) that won or retained at least one token this round, for callers
    that need the objects.
    """
    touched: dict[str, CorpusEntry] = {}
    for entry in entries:
        cost = (entry.packet_count, entry.entry_id)
        for token in entry.covered:
            if token not in winners or cost < winners[token]:
                winners[token] = cost
                touched[entry.entry_id] = entry
    return touched


def _is_lock_error(error: sqlite3.OperationalError) -> bool:
    message = str(error).lower()
    return "locked" in message or "busy" in message


def _write_with_retry(operation, describe: str):
    """Run a write transaction, retrying lock contention with backoff.

    The busy timeout already absorbs waits *within* a statement, but a
    writer can still surface ``database is locked`` when the timeout
    elapses under pathological contention. Shard corpus write-back must
    survive that transient instead of failing a whole shard, so
    locked/busy errors are retried with capped exponential backoff; any
    other operational error propagates untouched. *operation* must be a
    whole transaction: a failed attempt has rolled back, so the retry
    starts from the committed state.
    """
    for attempt in range(1, WRITE_RETRY_ATTEMPTS + 1):
        try:
            return operation()
        except sqlite3.OperationalError as error:
            if not _is_lock_error(error) or attempt == WRITE_RETRY_ATTEMPTS:
                raise
            delay = backoff_delay(
                attempt - 1, WRITE_RETRY_BASE_SECONDS, WRITE_RETRY_CAP_SECONDS
            )
            _log.debug(
                "%s hit a locked database (attempt %d/%d); retrying in %.3fs",
                describe,
                attempt,
                WRITE_RETRY_ATTEMPTS,
                delay,
            )
            time.sleep(delay)


_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS entries (
    seq          INTEGER PRIMARY KEY AUTOINCREMENT,
    id           TEXT NOT NULL UNIQUE,
    target       TEXT NOT NULL,
    device_id    TEXT NOT NULL,
    strategy     TEXT NOT NULL,
    seed         TEXT NOT NULL,
    armed        INTEGER NOT NULL,
    packet_count INTEGER NOT NULL,
    data         TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_entries_id ON entries(id);
CREATE INDEX IF NOT EXISTS idx_entries_target ON entries(target);
CREATE INDEX IF NOT EXISTS idx_entries_device ON entries(device_id);
CREATE TABLE IF NOT EXISTS coverage (
    entry_seq     INTEGER NOT NULL REFERENCES entries(seq),
    token         TEXT NOT NULL,
    is_transition INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_coverage_token ON coverage(token, is_transition);
CREATE INDEX IF NOT EXISTS idx_coverage_entry ON coverage(entry_seq);
CREATE TABLE IF NOT EXISTS findings (
    bucket_id   TEXT PRIMARY KEY,
    target      TEXT NOT NULL,
    vendor      TEXT NOT NULL,
    class       TEXT NOT NULL,
    state       TEXT NOT NULL,
    occurrences INTEGER NOT NULL,
    data        TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_findings_query
    ON findings(target, vendor, class, state);
CREATE TABLE IF NOT EXISTS canonical (
    entry_id TEXT PRIMARY KEY
);
CREATE TABLE IF NOT EXISTS cmin_winners (
    token        TEXT PRIMARY KEY,
    packet_count INTEGER NOT NULL,
    entry_id     TEXT NOT NULL
);
"""

_INSERT_ENTRY = (
    "INSERT OR IGNORE INTO entries"
    " (id, target, device_id, strategy, seed, armed, packet_count, data)"
    " VALUES (?, ?, ?, ?, ?, ?, ?, ?)"
)

_INSERT_FINDING = (
    "INSERT OR IGNORE INTO findings"
    " (bucket_id, target, vendor, class, state, occurrences, data)"
    " VALUES (:bucket_id, :target, :vendor, :class, :state, :occurrences,"
    " :data)"
)


def _rank(data: str) -> str:
    """SQL rank of a stored finding record: lower is kept."""
    return (
        f"(json_extract({data}, '$.sim_time'), json_extract({data}, '$.device_id'),"
        f" json_extract({data}, '$.packets'), {data})"
    )


_KEEPS_INCOMING = f"{_rank(':data')} < {_rank('data')}"

#: A duplicate bucket: add the occurrences exactly, and keep the
#: lower-ranked of the stored and the incoming record (``state`` and
#: ``data`` move together; SET expressions all see the old row).
_BUMP_FINDING = (
    "UPDATE findings SET occurrences = occurrences + :occurrences,"
    f" state = CASE WHEN {_KEEPS_INCOMING} THEN :state ELSE state END,"
    f" data = CASE WHEN {_KEEPS_INCOMING} THEN :data ELSE data END"
    " WHERE bucket_id = :bucket_id"
)


class SqliteCorpusBackend:
    """The corpus directory's database: entries, findings, canonical set.

    Every method is safe on a corpus that does not exist yet (reads
    return empty, writes create the database), and every write method
    is safe under concurrent fleet workers.
    """

    name = "sqlite"

    def __init__(self, root) -> None:
        self.root = Path(root)
        self._local = threading.local()

    # -- connection management ----------------------------------------------------

    @property
    def database_path(self) -> Path:
        return self.root / SQLITE_FILE

    def _connect(self, create: bool) -> sqlite3.Connection | None:
        """Thread-local connection; ``None`` for reads of a cold corpus."""
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            return connection
        if not self.database_path.is_file():
            if not create:
                return None
            self.root.mkdir(parents=True, exist_ok=True)
        # isolation_level=None: transactions are opened explicitly by
        # _transaction, never implicitly by the driver.
        connection = sqlite3.connect(
            self.database_path,
            timeout=BUSY_TIMEOUT_MS / 1000,
            isolation_level=None,
        )
        connection.execute(f"PRAGMA busy_timeout = {BUSY_TIMEOUT_MS}")
        connection.execute("PRAGMA journal_mode = WAL")
        connection.execute("PRAGMA synchronous = NORMAL")
        connection.executescript(_SCHEMA)
        connection.execute(
            "INSERT OR IGNORE INTO meta (key, value) VALUES (?, ?)",
            ("schema_version", str(SCHEMA_VERSION)),
        )
        self._local.connection = connection
        return connection

    @staticmethod
    @contextlib.contextmanager
    def _transaction(connection: sqlite3.Connection, write: bool = True):
        """One transaction: committed on success, rolled back on error.

        Writers take the write lock up front (``BEGIN IMMEDIATE``), so
        a transaction never fails halfway on a lock upgrade; readers
        get one consistent snapshot across their statements.
        """
        connection.execute("BEGIN IMMEDIATE" if write else "BEGIN")
        try:
            yield connection
            connection.execute("COMMIT")
        except BaseException:
            if connection.in_transaction:
                connection.rollback()
            raise

    def close(self) -> None:
        """Close this thread's connection, if one is open."""
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            connection.close()
            self._local.connection = None

    def _meta(self, connection: sqlite3.Connection, key: str) -> str | None:
        row = connection.execute(
            "SELECT value FROM meta WHERE key = ?", (key,)
        ).fetchone()
        return row[0] if row else None

    # -- writing ------------------------------------------------------------------

    def ingest(
        self,
        batches: Sequence[
            tuple[Sequence[CorpusEntry], Sequence[FindingRecord]]
        ],
    ) -> list[dict]:
        """Write every ``(entries, records)`` batch in one transaction.

        All of it lands or none of it does, and the transaction is
        retried as a unit on lock contention. Batches are applied in
        order, so a repeat inside the call counts exactly as it would
        in separate calls. Returns one dict per batch:
        ``{"entries_added", "findings_new", "findings_duplicate"}``.
        """
        return _write_with_retry(lambda: self._ingest_once(batches), "ingest")

    def _ingest_once(self, batches) -> list[dict]:
        connection = self._connect(create=True)
        results = []
        with self._transaction(connection):
            for entries, records in batches:
                added = new = duplicate = 0
                for entry in entries:
                    added += self._insert_entry(connection, entry)
                for record in records:
                    row = {
                        "bucket_id": record.bucket_id,
                        "target": record.target,
                        "vendor": record.vendor,
                        "class": record.vulnerability_class,
                        "state": record.state,
                        "occurrences": record.occurrences,
                        "data": json.dumps(record_to_dict(record), sort_keys=True),
                    }
                    if connection.execute(_INSERT_FINDING, row).rowcount:
                        new += 1
                    else:
                        connection.execute(_BUMP_FINDING, row)
                        duplicate += 1
                results.append(
                    {
                        "entries_added": added,
                        "findings_new": new,
                        "findings_duplicate": duplicate,
                    }
                )
        return results

    @staticmethod
    def _insert_entry(connection: sqlite3.Connection, entry: CorpusEntry) -> int:
        cursor = connection.execute(
            _INSERT_ENTRY,
            (
                entry.entry_id,
                entry.target,
                entry.device_id,
                entry.strategy,
                # TEXT: fleet campaign seeds are SHA-256-derived and
                # overflow SQLite's 64-bit INTEGER.
                str(entry.seed),
                int(entry.armed),
                entry.packet_count,
                entry_line(entry),
            ),
        )
        if cursor.rowcount == 0:
            return 0
        connection.executemany(
            "INSERT INTO coverage (entry_seq, token, is_transition)"
            " VALUES (?, ?, ?)",
            [
                (cursor.lastrowid, token, int(">" in token))
                for token in entry.covered
            ],
        )
        return 1

    def add_entry(self, entry: CorpusEntry) -> bool:
        """Persist *entry*; False when it was already stored."""
        return self.ingest([([entry], ())])[0]["entries_added"] == 1

    def record_finding(self, record: FindingRecord) -> str:
        """Store *record*; returns ``"new"`` or ``"duplicate"``.

        A duplicate adds its occurrence count to the bucket's — exactly,
        under any number of concurrent workers — and the bucket keeps
        the lower-ranked of the two records (see :data:`_BUMP_FINDING`).
        """
        counts = self.ingest([((), [record])])[0]
        return "new" if counts["findings_new"] else "duplicate"

    # -- entries ------------------------------------------------------------------

    def entries(self) -> list[CorpusEntry]:
        """Every stored entry, sorted by ID (deterministic order)."""
        connection = self._connect(create=False)
        if connection is None:
            return []
        return [
            dict_to_entry(json.loads(data))
            for (data,) in connection.execute(
                "SELECT data FROM entries ORDER BY id"
            )
        ]

    def entry_count(self) -> int:
        connection = self._connect(create=False)
        if connection is None:
            return 0
        return connection.execute("SELECT COUNT(*) FROM entries").fetchone()[0]

    def coverage(self) -> frozenset[str]:
        """Union of every entry's coverage tokens."""
        connection = self._connect(create=False)
        if connection is None:
            return frozenset()
        return frozenset(
            token
            for (token,) in connection.execute(
                "SELECT DISTINCT token FROM coverage"
            )
        )

    def state_frequencies(self) -> dict[str, int]:
        """Per-state entry counts (transition tokens excluded)."""
        connection = self._connect(create=False)
        if connection is None:
            return {}
        return dict(
            connection.execute(
                "SELECT token, COUNT(*) FROM coverage"
                " WHERE is_transition = 0 GROUP BY token"
            )
        )

    # -- canonical corpus ---------------------------------------------------------

    def _census(self, connection: sqlite3.Connection) -> tuple[int, str]:
        count, max_id = connection.execute(
            "SELECT COUNT(*), COALESCE(MAX(id), '') FROM entries"
        ).fetchone()
        return (int(count), str(max_id))

    def _stored_winners(
        self, connection: sqlite3.Connection
    ) -> dict[str, tuple[int, str]]:
        return {
            token: (packet_count, entry_id)
            for token, packet_count, entry_id in connection.execute(
                "SELECT token, packet_count, entry_id FROM cmin_winners"
            )
        }

    def minimize(self, write: bool = True) -> list[CorpusEntry]:
        """Incremental ``cmin``: fold only entries newer than the last run.

        For every coverage token keep the cheapest entry covering it
        (fewest packets, ties by entry ID); the canonical corpus is the
        deduplicated union, sorted by ID. The stored winner map is the
        fold state; merging it with the entries inserted since
        ``cmin_last_seq`` yields exactly the full-scan answer
        (associativity — entries are never deleted). ``write=False``
        computes the same canonical set without persisting the fold.
        """
        # Retried as a unit: the fold is associative and the entries
        # table is append-only, so a rerun after a lock error computes
        # the identical winner map.
        return _write_with_retry(
            lambda: self._minimize_once(write), "minimize"
        )

    def _minimize_once(self, write: bool) -> list[CorpusEntry]:
        connection = self._connect(create=write)
        if connection is None:
            return []
        with self._transaction(connection, write=write):
            last_seq = int(self._meta(connection, "cmin_last_seq") or 0)
            winners = self._stored_winners(connection)
            new_rows = connection.execute(
                "SELECT seq, data FROM entries WHERE seq > ? ORDER BY seq",
                (last_seq,),
            ).fetchall()
            cmin_update(
                winners,
                (dict_to_entry(json.loads(data)) for _, data in new_rows),
            )
            canonical_ids = sorted({entry_id for _, entry_id in winners.values()})
            if write:
                connection.executemany(
                    "INSERT OR REPLACE INTO cmin_winners"
                    " (token, packet_count, entry_id) VALUES (?, ?, ?)",
                    [
                        (token, packet_count, entry_id)
                        for token, (packet_count, entry_id) in winners.items()
                    ],
                )
                connection.execute("DELETE FROM canonical")
                connection.executemany(
                    "INSERT INTO canonical (entry_id) VALUES (?)",
                    [(entry_id,) for entry_id in canonical_ids],
                )
                max_seq = max((seq for seq, _ in new_rows), default=last_seq)
                count, max_id = self._census(connection)
                connection.executemany(
                    "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
                    [
                        ("cmin_last_seq", str(max_seq)),
                        ("cmin_entry_count", str(count)),
                        ("cmin_max_entry_id", max_id),
                    ],
                )
            if not canonical_ids:
                return []
            placeholders = ",".join("?" * len(canonical_ids))
            return [
                dict_to_entry(json.loads(data))
                for (data,) in connection.execute(
                    f"SELECT data FROM entries WHERE id IN ({placeholders})"
                    " ORDER BY id",
                    canonical_ids,
                )
            ]

    def canonical_entries(self) -> list[CorpusEntry]:
        """The minimised corpus, if one has been written."""
        connection = self._connect(create=False)
        if connection is None:
            return []
        return [
            dict_to_entry(json.loads(data))
            for (data,) in connection.execute(
                "SELECT e.data FROM entries e"
                " JOIN canonical c ON c.entry_id = e.id ORDER BY e.id"
            )
        ]

    def canonical_is_stale(self) -> bool:
        """Whether entries were added after the last ``minimize``.

        False when no canonical corpus exists at all; True when one
        exists but the live entry set has since changed, or when its
        freshness cannot be established (a canonical set that an older
        release imported without freshness metadata). Callers seeding from the canonical
        set must fall back to :meth:`entries` when this is True.
        """
        connection = self._connect(create=False)
        if connection is None:
            return False
        has_canonical = connection.execute(
            "SELECT EXISTS(SELECT 1 FROM canonical)"
        ).fetchone()[0]
        if not has_canonical:
            return False
        count = self._meta(connection, "cmin_entry_count")
        max_id = self._meta(connection, "cmin_max_entry_id")
        if count is None or max_id is None:
            return True
        return (int(count), max_id) != self._census(connection)

    def seed_entries(self) -> list[CorpusEntry]:
        """The best seed set available right now.

        The canonical (minimised) corpus while it still reflects the
        live entry set; the live entry set itself as soon as the
        canonical one is stale or absent — guided seeding must never
        silently run on a snapshot that predates newer coverage.
        """
        if not self.canonical_is_stale():
            canonical = self.canonical_entries()
            if canonical:
                return canonical
        return self.entries()

    def export_jsonl(self, path) -> int:
        """Write every entry, in ID order, as one JSONL document.

        Published atomically: a crash mid-export can never leave a
        truncated document at *path*. Returns the entry count.
        """
        entries = self.entries()
        atomic_write(Path(path), "".join(entry_line(entry) for entry in entries))
        return len(entries)

    def describe_canonical(self) -> str:
        """Human-readable location of the canonical corpus."""
        return f"{self.database_path} (canonical table)"

    # -- findings -----------------------------------------------------------------

    def _records_from_rows(self, rows) -> list[FindingRecord]:
        records = []
        for data, occurrences in rows:
            # The data column keeps the bucket's representative record;
            # the occurrences column is the transactional truth.
            payload = json.loads(data)
            payload["occurrences"] = occurrences
            records.append(dict_to_record(payload))
        return records

    def finding_records(self) -> list[FindingRecord]:
        """Every bucket, sorted by bucket ID (deterministic order)."""
        connection = self._connect(create=False)
        if connection is None:
            return []
        return self._records_from_rows(
            connection.execute(
                "SELECT data, occurrences FROM findings ORDER BY bucket_id"
            )
        )

    def finding_count(self) -> int:
        connection = self._connect(create=False)
        if connection is None:
            return 0
        return connection.execute("SELECT COUNT(*) FROM findings").fetchone()[0]

    def query_findings(
        self,
        target: str | None = None,
        vendor: str | None = None,
        vulnerability_class: str | None = None,
        state: str | None = None,
    ) -> list[FindingRecord]:
        """Buckets matching every given filter, sorted by bucket ID.

        Served by the ``(target, vendor, class, state)`` index; ``None``
        filters match everything.
        """
        connection = self._connect(create=False)
        if connection is None:
            return []
        clauses, params = [], []
        for column, value in (
            ("target", target),
            ("vendor", vendor),
            ("class", vulnerability_class),
            ("state", state),
        ):
            if value is not None:
                clauses.append(f"{column} = ?")
                params.append(value)
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        return self._records_from_rows(
            connection.execute(
                "SELECT data, occurrences FROM findings"
                f"{where} ORDER BY bucket_id",
                params,
            )
        )

    def garbage_dictionary(self) -> tuple[bytes, ...]:
        """Known-crashing garbage tails across all stored reproducers."""
        tails: set[bytes] = set()
        for record in self.finding_records():
            for packet in record.decode_packets():
                if packet.garbage:
                    tails.add(bytes(packet.garbage))
        return tuple(sorted(tails))

    # -- aggregates / lifecycle ---------------------------------------------------

    def exists(self) -> bool:
        """Whether anything has ever been written to this corpus."""
        return self.database_path.is_file()

    def stats(self) -> CorpusStats:
        """All aggregates straight from the indexes — no entry parsing."""
        connection = self._connect(create=False)
        if connection is None:
            return CorpusStats(0, 0, 0, False, (), (), {}, 0, 0)
        entry_count, packet_total = connection.execute(
            "SELECT COUNT(*), COALESCE(SUM(packet_count), 0) FROM entries"
        ).fetchone()
        canonical_count = connection.execute(
            "SELECT COUNT(*) FROM canonical"
        ).fetchone()[0]
        tokens = connection.execute(
            "SELECT DISTINCT token, is_transition FROM coverage"
        ).fetchall()
        finding_count, occurrence_total = connection.execute(
            "SELECT COUNT(*), COALESCE(SUM(occurrences), 0) FROM findings"
        ).fetchone()
        return CorpusStats(
            entry_count=entry_count,
            packet_total=packet_total,
            canonical_count=canonical_count,
            canonical_stale=self.canonical_is_stale(),
            state_tokens=tuple(
                sorted(token for token, is_transition in tokens if not is_transition)
            ),
            transition_tokens=tuple(
                sorted(token for token, is_transition in tokens if is_transition)
            ),
            state_frequencies=self.state_frequencies(),
            finding_count=finding_count,
            occurrence_total=occurrence_total,
        )


__all__ = [
    "BUSY_TIMEOUT_MS",
    "SCHEMA_VERSION",
    "SQLITE_FILE",
    "WRITE_RETRY_ATTEMPTS",
    "CorpusStats",
    "SqliteCorpusBackend",
    "cmin_update",
]
