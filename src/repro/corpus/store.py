"""The persistent, shareable corpus store and the campaign write-back.

:class:`CorpusStore` is the entry-side view of a corpus directory's
database (see :mod:`repro.corpus.sqlite_backend`). Every consumer —
campaign write-back, the fleet runtime's shards, the scheduler prior,
replay, the CLI — goes through :func:`~repro.corpus.backend.open_backend`.

:meth:`CorpusStore.minimize` is the ``afl-cmin`` equivalent: for every
coverage token pick the cheapest entry (fewest packets, then lowest ID)
that exercises it, and the canonical corpus is the union of winners —
a minimal-ish seed set that still reaches everything the fleet reached.
:meth:`CorpusStore.seed_entries` is the safe way to consume it: the
canonical set when it is still fresh, the live entry set once new
entries have been recorded past the last ``minimize``.

:func:`record_campaigns` writes a whole fleet shard back: it first
builds every entry and shrinks every finding of the shard (all the
replay work), then writes everything in one transaction, so the
database write lock is never held across a replay and a failed
write-back leaves the corpus untouched.
"""

from __future__ import annotations

from pathlib import Path

from repro.corpus.backend import open_backend
from repro.corpus.entry import (
    CorpusEntry,
    entry_from_packets,
    entry_line,
    transition_token,
)
from repro.corpus.sqlite_backend import CorpusStats
from repro.durability import atomic_write


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
    """Entry-side facade over a corpus directory's database.

    :param root: corpus directory (created lazily on first write).
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.backend = open_backend(self.root)

    def exists(self) -> bool:
        """Whether anything has ever been written to this corpus."""
        return self.backend.exists()

    # -- writing ------------------------------------------------------------------

    def add(self, entry: CorpusEntry) -> bool:
        """Persist *entry*; returns False when it was already stored.

        Content-addressed and atomic: concurrent adders of the same
        sequence converge on one stored row.
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
        indexed ``GROUP BY``.
        """
        return self.backend.state_frequencies()

    def stats(self) -> CorpusStats:
        """One-shot aggregate view (indexed queries, no entry parsing)."""
        return self.backend.stats()

    # -- minimisation -------------------------------------------------------------

    def minimize(self, write: bool = True) -> list[CorpusEntry]:
        """``cmin``: reduce the corpus to a canonical covering seed set.

        For every coverage token keep the cheapest entry covering it
        (fewest packets, ties by entry ID); the canonical corpus is the
        deduplicated union, sorted by ID. When *write* is set the result
        is persisted to the ``canonical`` table; the scan is incremental
        over entries added since the previous cmin.
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
    return record_campaigns(root, [(profile, fuzzer, report)], armed)[0]


def record_campaigns(root, campaigns, armed: bool = True) -> list[dict]:
    """Shard write-back: many campaigns, one transaction.

    *campaigns* is an iterable of ``(profile, fuzzer, report)`` triples.
    Every entry and every shrunk finding record of the batch is built
    first — all replays happen before the database is touched — and
    then written in one transaction, retried as a unit on lock
    contention. Counts are per campaign and exactly what campaign-by-
    campaign writes would report, repeats inside the batch included.
    Returns one stats dict per campaign, in input order.
    """
    backend = open_backend(root)
    try:
        batches = [
            _campaign_batch(profile, fuzzer, report, armed)
            for profile, fuzzer, report in campaigns
        ]
        return backend.ingest(batches)
    finally:
        backend.close()


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


def _campaign_batch(profile, fuzzer, report, armed: bool):
    """One campaign's ``(entries, finding records)``, replays done."""
    from repro.corpus import findings

    target_name = getattr(getattr(fuzzer, "target", None), "name", "l2cap")
    sent_entries = fuzzer.sniffer.sent()
    cumulative: set[str] = set()
    entries = []
    for tokens, prefix_len in fuzzer.coverage_log:
        cumulative.update(tokens)
        if prefix_len == 0:
            # Coverage unlocked before anything was sent (the plan's
            # entry posture): nothing to replay, nothing worth storing.
            continue
        entries.append(
            entry_from_packets(
                packets=[traced.packet for traced in sent_entries[:prefix_len]],
                unlocked=tokens,
                covered=cumulative,
                device_id=profile.device_id,
                strategy=report.strategy,
                seed=fuzzer.config.seed,
                armed=armed,
                target=target_name,
            )
        )
    records = []
    for finding in report.findings:
        record = findings.shrink_finding(
            finding, profile, _detection_prefix(sent_entries, finding)
        )
        if record is not None:
            records.append(record)
    return entries, records


__all__ = [
    "CorpusStore",
    "record_campaign",
    "record_campaigns",
    "state_frequencies_of",
    "transition_token",
]
