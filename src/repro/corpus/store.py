"""The persistent, shareable corpus store (backend facade).

:class:`CorpusStore` is the entry-side view over a pluggable
:class:`~repro.corpus.backend.CorpusBackend` — the file layout by
default, SQLite (WAL) when the directory holds a ``corpus.sqlite3``
database (see :func:`~repro.corpus.backend.open_backend` for the
autodetection rules and ``repro corpus migrate`` for conversion). Every
consumer — campaign write-back, the fleet runtime's batched shards, the
scheduler prior, replay, the CLI — talks to this facade and works
against whichever backend owns the directory.

:meth:`CorpusStore.minimize` is the ``afl-cmin`` equivalent: for every
coverage token pick the cheapest entry (fewest packets, then lowest ID)
that exercises it, and the canonical corpus is the union of winners —
a minimal-ish seed set that still reaches everything the fleet reached.
:meth:`CorpusStore.seed_entries` is the safe way to consume it: the
canonical set when it is still fresh, the live entry set once new
entries have been recorded past the last ``minimize``.
"""

from __future__ import annotations

from pathlib import Path

from repro.corpus.backend import (
    CorpusBackend,
    CorpusStats,
    open_backend,
)
from repro.corpus.entry import (
    CorpusEntry,
    entry_from_packets,
    transition_token,
)
from repro.durability import atomic_write

ENTRIES_DIR = "entries"
CANONICAL_FILE = "corpus.jsonl"


def state_frequencies_of(entries: list[CorpusEntry]) -> dict[str, int]:
    """Per-state coverage counts over an entry list (transitions —
    tokens carrying ``>`` — never count towards the state prior)."""
    counts: dict[str, int] = {}
    for entry in entries:
        for token in entry.covered:
            if ">" not in token:
                counts[token] = counts.get(token, 0) + 1
    return counts


class CorpusStore:
    """Entry-side facade over a corpus directory's storage backend.

    :param root: corpus directory (created lazily on first write).
    :param backend: ``None`` autodetects from the directory layout; a
        registry name ("file"/"sqlite") forces one; a
        :class:`~repro.corpus.backend.CorpusBackend` instance is used
        directly (shared-handle batching).
    """

    def __init__(self, root, backend: str | CorpusBackend | None = None) -> None:
        self.root = Path(root)
        self.backend = open_backend(self.root, backend)

    # -- paths --------------------------------------------------------------------

    @property
    def entries_dir(self) -> Path:
        """File-layout entries directory (file backend only)."""
        return self.root / ENTRIES_DIR

    @property
    def canonical_path(self) -> Path:
        """File-layout canonical corpus path (file backend only)."""
        return self.root / CANONICAL_FILE

    def exists(self) -> bool:
        """Whether anything has ever been written to this corpus."""
        return self.backend.exists()

    # -- writing ------------------------------------------------------------------

    def add(self, entry: CorpusEntry) -> bool:
        """Persist *entry*; returns False when it was already stored.

        Content-addressed and atomic on either backend: concurrent
        adders of the same sequence converge on one stored row/file.
        """
        return self.backend.add_entry(entry)

    # -- reading ------------------------------------------------------------------

    def entries(self) -> list[CorpusEntry]:
        """Every stored entry, sorted by ID (deterministic order)."""
        return self.backend.entries()

    def __len__(self) -> int:
        return self.backend.entry_count()

    def coverage(self) -> frozenset[str]:
        """Union of every entry's coverage tokens."""
        return self.backend.coverage()

    def state_frequencies(self) -> dict[str, int]:
        """Per-state entry counts — the cross-campaign visit prior.

        How many stored entries exercise each state token; rare states
        score low, which is exactly what the
        :class:`~repro.corpus.scheduler.EnergyScheduler` boosts. An
        indexed ``GROUP BY`` on the SQLite backend.
        """
        return self.backend.state_frequencies()

    def stats(self) -> CorpusStats:
        """One-shot aggregate view (single pass / single query)."""
        return self.backend.stats()

    # -- minimisation -------------------------------------------------------------

    def minimize(self, write: bool = True) -> list[CorpusEntry]:
        """``cmin``: reduce the corpus to a canonical covering seed set.

        For every coverage token keep the cheapest entry covering it
        (fewest packets, ties by entry ID); the canonical corpus is the
        deduplicated union, sorted by ID. When *write* is set the result
        is persisted (``corpus.jsonl`` plus a freshness marker on the
        file backend; the ``canonical`` table on SQLite, where the scan
        is incremental over entries added since the previous cmin).
        """
        return self.backend.minimize(write=write)

    def canonical_entries(self) -> list[CorpusEntry]:
        """The minimised corpus, if one has been written.

        May be stale — check :meth:`canonical_is_stale`, or use
        :meth:`seed_entries` which does.
        """
        return self.backend.canonical_entries()

    def canonical_is_stale(self) -> bool:
        """True when entries were added after the last ``minimize``."""
        return self.backend.canonical_is_stale()

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
        """Write the whole corpus (all entries) as one JSONL document.

        Published atomically: a crash mid-export can never leave a
        truncated document at *path*.
        """
        from repro.corpus.file_backend import entry_line

        entries = self.entries()
        atomic_write(
            Path(path), "".join(entry_line(entry) for entry in entries)
        )
        return len(entries)


def record_campaign(root, profile, fuzzer, report, armed: bool = True) -> dict:
    """Write one finished campaign back into the shared corpus.

    Persists every coverage-unlock prefix the fuzzer logged as a corpus
    entry, and every finding into the finding database (minimised to its
    essential trigger). Returns a small summary dict
    ``{"entries_added", "findings_new", "findings_duplicate"}``.
    """
    from repro.corpus.findings import FindingDatabase

    backend = open_backend(root)
    return _record_into(
        CorpusStore(root, backend=backend),
        FindingDatabase(root, backend=backend),
        profile,
        fuzzer,
        report,
        armed,
    )


def record_campaigns(root, campaigns, armed: bool = True) -> list[dict]:
    """Batched write-back: many campaigns through one backend handle.

    *campaigns* is an iterable of ``(profile, fuzzer, report)`` triples.
    One backend is opened for the whole batch — a fleet worker records
    its entire shard this way instead of paying a handle per campaign.
    Writes stay safe under parallel workers on either backend (atomic
    content-addressed publishes on the file layout, WAL transactions on
    SQLite), so batches from concurrent shards interleave exactly as
    safely as individual campaigns always did. Returns one stats dict
    per campaign, in input order.
    """
    from repro.corpus.findings import FindingDatabase

    backend = open_backend(root)
    store = CorpusStore(root, backend=backend)
    database = FindingDatabase(root, backend=backend)
    return [
        _record_into(store, database, profile, fuzzer, report, armed)
        for profile, fuzzer, report in campaigns
    ]


def _detection_prefix(sent_entries, finding) -> list:
    """The fuzzer→target packets that led to *finding*, trigger last.

    Cut by the finding's recorded send index — the number of packets on
    the wire at detection — so packets transmitted *after* the
    detection but at the same simulated tick (the detector's liveness
    probes, auto-reset traffic) never leak into the stored reproducer.
    Findings recorded before send indices existed fall back to the old
    timestamp rule (every packet at or before the detection tick).
    """
    cut = getattr(finding, "sent_index", None)
    if cut is None:
        return [
            traced.packet
            for traced in sent_entries
            if traced.sim_time <= finding.sim_time
        ]
    return [traced.packet for traced in sent_entries[:cut]]


def _record_into(
    store: CorpusStore, database, profile, fuzzer, report, armed: bool
) -> dict:
    """One campaign's write-back through already-open handles."""
    from repro.corpus.findings import record_from_campaign

    target_name = getattr(getattr(fuzzer, "target", None), "name", "l2cap")
    sent_entries = fuzzer.sniffer.sent()
    cumulative: set[str] = set()
    added = 0
    for tokens, prefix_len in fuzzer.coverage_log:
        cumulative.update(tokens)
        if prefix_len == 0:
            # Coverage unlocked before anything was sent (the plan's
            # entry posture): nothing to replay, nothing worth storing.
            continue
        entry = entry_from_packets(
            packets=[traced.packet for traced in sent_entries[:prefix_len]],
            unlocked=tokens,
            covered=cumulative,
            device_id=profile.device_id,
            strategy=report.strategy,
            seed=fuzzer.config.seed,
            armed=armed,
            target=target_name,
        )
        if store.add(entry):
            added += 1

    statuses = {"new": 0, "duplicate": 0}
    for finding in report.findings:
        prefix = _detection_prefix(sent_entries, finding)
        status = record_from_campaign(database, finding, profile, prefix)
        if status in statuses:
            statuses[status] += 1
    return {
        "entries_added": added,
        "findings_new": statuses["new"],
        "findings_duplicate": statuses["duplicate"],
    }


__all__ = [
    "CorpusStore",
    "record_campaign",
    "record_campaigns",
    "state_frequencies_of",
    "transition_token",
]
