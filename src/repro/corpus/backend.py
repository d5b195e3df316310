"""Pluggable corpus storage: the backend interface and its registry.

A corpus directory is served by exactly one :class:`CorpusBackend`,
which owns all four persistent collections:

* **entries** — content-addressed packet sequences (the seed corpus);
* **findings** — deduplicated crash buckets with occurrence counts;
* **canonical** — the ``cmin``-minimised covering seed set;
* **stats** — the aggregate queries (coverage, per-state frequencies,
  packet totals) every CLI/scheduler read path runs.

Two implementations ship:

* :class:`~repro.corpus.file_backend.FileCorpusBackend` — the original
  atomic-per-entry JSON layout (``entries/``, ``findings/``,
  ``corpus.jsonl``). Migration-free default; writes stay lock-free and
  content-addressed, finding-occurrence bumps take a per-bucket
  exclusive lock.
* :class:`~repro.corpus.sqlite_backend.SqliteCorpusBackend` — one WAL
  SQLite database (``corpus.sqlite3``) with indexed queries by
  (target, vendor, class, state), transactional O(1) occurrence bumps
  and incremental minimisation. Built for heavy parallel ingestion and
  millions-of-findings scale.

The backend for a directory is **autodetected from its layout** (a
``corpus.sqlite3`` file wins over the JSON layout), so every caller —
``record_campaigns``, the fleet runtime's batched write-back, the
scheduler prior, replay, the CLI — opens a corpus with
:func:`open_backend` and works against whichever format is on disk.
``repro corpus migrate`` converts a file corpus in place.

Both backends answer every query identically for the same operation
history — pinned by the backend-parity test suite.
"""

from __future__ import annotations

import abc
import dataclasses
import re
from collections.abc import Iterable, Sequence
from pathlib import Path
from typing import TYPE_CHECKING

from repro.corpus.entry import CorpusEntry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.corpus.findings import FindingRecord

#: Registry names, in autodetection priority order.
BACKEND_NAMES = ("sqlite", "file")

#: Database file whose presence marks a directory as SQLite-backed.
SQLITE_FILE = "corpus.sqlite3"

#: Legal corpus namespace names: a path-safe single segment. Separators
#: and a leading dot are excluded by construction, so a namespace can
#: never escape its root or shadow the root's own layout files.
NAMESPACE_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


@dataclasses.dataclass(frozen=True)
class CorpusStats:
    """One-shot aggregate view of a corpus (the CLI ``stats`` payload).

    Backends compute this in a single pass/query instead of having every
    caller re-read the whole entry set.
    """

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
    makes the SQLite backend's incremental minimisation (old winners +
    only-new entries) produce exactly the full-scan answer. Returns the
    entries (keyed by ID) that won or retained at least one token this
    round, for callers that need the objects.
    """
    touched: dict[str, CorpusEntry] = {}
    for entry in entries:
        cost = (entry.packet_count, entry.entry_id)
        for token in entry.covered:
            if token not in winners or cost < winners[token]:
                winners[token] = cost
                touched[entry.entry_id] = entry
    return touched


class CorpusBackend(abc.ABC):
    """Storage interface every corpus consumer programs against.

    All methods are safe to call on a corpus that does not exist yet
    (reads return empty, writes create the storage lazily), and all
    write methods are safe under concurrent workers — thread pools,
    process pools, or both at once.
    """

    #: Registry name ("file" or "sqlite").
    name: str = ""

    def __init__(self, root) -> None:
        self.root = Path(root)

    # -- entries ------------------------------------------------------------------

    @abc.abstractmethod
    def add_entry(self, entry: CorpusEntry) -> bool:
        """Persist *entry*; False when it was already stored."""

    @abc.abstractmethod
    def entries(self) -> list[CorpusEntry]:
        """Every stored entry, sorted by ID (deterministic order)."""

    @abc.abstractmethod
    def entry_count(self) -> int:
        """Number of stored entries."""

    @abc.abstractmethod
    def coverage(self) -> frozenset[str]:
        """Union of every entry's coverage tokens."""

    @abc.abstractmethod
    def state_frequencies(self) -> dict[str, int]:
        """Per-state entry counts (transition tokens excluded)."""

    # -- canonical corpus ---------------------------------------------------------

    @abc.abstractmethod
    def minimize(self, write: bool = True) -> list[CorpusEntry]:
        """``cmin`` over the current entry set; persist when *write*."""

    @abc.abstractmethod
    def canonical_entries(self) -> list[CorpusEntry]:
        """The minimised corpus, if one has been written."""

    @abc.abstractmethod
    def canonical_is_stale(self) -> bool:
        """Whether entries were added after the last ``minimize``.

        False when no canonical corpus exists at all; True when one
        exists but the live entry set has since changed (or its
        freshness can no longer be established — pre-upgrade corpora
        without freshness metadata are conservatively stale). Callers
        seeding from the canonical set must fall back to
        :meth:`entries` when this is True.
        """

    @abc.abstractmethod
    def describe_canonical(self) -> str:
        """Human-readable location of the canonical corpus."""

    # -- findings -----------------------------------------------------------------

    @abc.abstractmethod
    def record_finding(self, record: "FindingRecord") -> str:
        """Store *record*; returns ``"new"`` or ``"duplicate"``.

        A duplicate keeps the first-seen record and adds the incoming
        occurrence count to the bucket's — exactly, under any number of
        concurrent workers.
        """

    @abc.abstractmethod
    def finding_records(self) -> list["FindingRecord"]:
        """Every bucket, sorted by bucket ID (deterministic order)."""

    @abc.abstractmethod
    def finding_count(self) -> int:
        """Number of finding buckets."""

    @abc.abstractmethod
    def query_findings(
        self,
        target: str | None = None,
        vendor: str | None = None,
        vulnerability_class: str | None = None,
        state: str | None = None,
    ) -> list["FindingRecord"]:
        """Buckets matching every given filter, sorted by bucket ID.

        Indexed on the SQLite backend; a filtered scan on the file
        backend. ``None`` filters match everything.
        """

    # -- aggregates / lifecycle ---------------------------------------------------

    @abc.abstractmethod
    def exists(self) -> bool:
        """Whether anything has ever been written to this corpus."""

    def stats(self) -> CorpusStats:
        """Aggregate corpus statistics (one pass; see :class:`CorpusStats`)."""
        entries = self.entries()
        tokens: set[str] = set()
        frequencies: dict[str, int] = {}
        for entry in entries:
            for token in entry.covered:
                tokens.add(token)
                if ">" not in token:
                    frequencies[token] = frequencies.get(token, 0) + 1
        records = self.finding_records()
        return CorpusStats(
            entry_count=len(entries),
            packet_total=sum(entry.packet_count for entry in entries),
            canonical_count=len(self.canonical_entries()),
            canonical_stale=self.canonical_is_stale(),
            state_tokens=tuple(sorted(t for t in tokens if ">" not in t)),
            transition_tokens=tuple(sorted(t for t in tokens if ">" in t)),
            state_frequencies=frequencies,
            finding_count=len(records),
            occurrence_total=sum(record.occurrences for record in records),
        )

    def garbage_dictionary(self) -> tuple[bytes, ...]:
        """Known-crashing garbage tails across all stored reproducers."""
        tails: set[bytes] = set()
        for record in self.finding_records():
            for packet in record.decode_packets():
                if packet.garbage:
                    tails.add(bytes(packet.garbage))
        return tuple(sorted(tails))

    def initialize(self) -> None:
        """Materialise the storage so autodetection recognises it.

        The base implementation creates the corpus directory; the
        SQLite backend additionally creates its (otherwise lazily
        created) database file, so a namespace carved out for a tenant
        keeps its chosen backend even when the first writer opens it
        via layout autodetection.
        """
        self.root.mkdir(parents=True, exist_ok=True)

    def close(self) -> None:
        """Release any held resources (connections, locks)."""

    @staticmethod
    def _filter_records(
        records: Sequence["FindingRecord"],
        target: str | None,
        vendor: str | None,
        vulnerability_class: str | None,
        state: str | None,
    ) -> list["FindingRecord"]:
        """Shared in-memory filter (the non-indexed query path)."""
        return [
            record
            for record in records
            if (target is None or record.target == target)
            and (vendor is None or record.vendor == vendor)
            and (
                vulnerability_class is None
                or record.vulnerability_class == vulnerability_class
            )
            and (state is None or record.state == state)
        ]


def detect_backend_name(root) -> str:
    """Pick the backend for a corpus directory from its on-disk layout.

    A ``corpus.sqlite3`` database marks the directory SQLite-backed;
    anything else (including a directory that does not exist yet) is
    served by the migration-free file backend.
    """
    return "sqlite" if (Path(root) / SQLITE_FILE).is_file() else "file"


def open_backend(root, spec: "str | CorpusBackend | None" = None) -> CorpusBackend:
    """Open the corpus at *root* with the right backend.

    :param spec: ``None`` autodetects from the directory layout; a
        registry name ("file"/"sqlite") forces a backend; an already
        constructed backend is passed through (so one backend instance
        can serve several facades).
    :raises ValueError: on an unknown backend name.
    """
    if isinstance(spec, CorpusBackend):
        return spec
    name = spec or detect_backend_name(root)
    if name == "file":
        from repro.corpus.file_backend import FileCorpusBackend

        return FileCorpusBackend(root)
    if name == "sqlite":
        from repro.corpus.sqlite_backend import SqliteCorpusBackend

        return SqliteCorpusBackend(root)
    raise ValueError(
        f"unknown corpus backend {name!r}; choose from {', '.join(BACKEND_NAMES)}"
    )


def namespace_root(root, namespace: str) -> Path:
    """The directory serving *namespace* under the corpus root *root*.

    Namespaces are the multi-tenant unit: each one is an independent
    corpus directory (its own backend, entries, findings) living at
    ``<root>/<namespace>``. Names are validated against
    :data:`NAMESPACE_RE` — a single path-safe segment — so a namespace
    can never resolve outside *root*.

    :raises ValueError: on a name that fails validation.
    """
    if not NAMESPACE_RE.match(namespace):
        raise ValueError(
            f"invalid corpus namespace {namespace!r}: use 1-64 letters, "
            "digits, '.', '_' or '-', starting with a letter or digit"
        )
    return Path(root) / namespace


def open_namespace(
    root, namespace: str, spec: "str | None" = "sqlite"
) -> CorpusBackend:
    """Open (creating on first use) the corpus namespace *namespace*.

    New namespaces are materialised immediately — including the SQLite
    database file when *spec* selects (or defaults to) the SQLite
    backend — so later opens that autodetect from the directory layout
    (the fleet workers' write-back path) land on the same backend the
    namespace was created with. An existing namespace is opened by
    autodetection, ignoring *spec*: the on-disk layout is the truth.
    """
    target = namespace_root(root, namespace)
    if target.is_dir():
        return open_backend(target)
    backend = open_backend(target, spec)
    backend.initialize()
    return backend


__all__ = [
    "BACKEND_NAMES",
    "CorpusBackend",
    "CorpusStats",
    "NAMESPACE_RE",
    "SQLITE_FILE",
    "cmin_update",
    "detect_backend_name",
    "namespace_root",
    "open_backend",
    "open_namespace",
]
