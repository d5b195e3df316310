"""Coverage-guided corpus: persistent findings + cross-campaign seeds.

The corpus subsystem makes campaigns stateful *across* runs:

* :class:`~repro.corpus.store.CorpusStore` persists the packet
  sequences that unlocked state/transition coverage, content-addressed
  and ``cmin``-minimisable into a canonical seed set;
* :class:`~repro.corpus.findings.FindingDatabase` buckets crashes by
  ``(vendor, class, minimised-trigger hash)`` and deduplicates them
  across runs;
* both are facades over one SQLite (WAL) database per corpus directory,
  :class:`~repro.corpus.sqlite_backend.SqliteCorpusBackend`; a fleet
  shard writes back in one transaction, and a directory in the legacy
  JSON-file layout is refused with
  :class:`~repro.errors.LegacyCorpusError`;
* :class:`~repro.corpus.scheduler.EnergyScheduler` feeds visit counts
  (campaign-local plus corpus prior) back into mutation scheduling;
* :mod:`~repro.corpus.replay` re-fires stored entries and findings
  against fresh targets, deterministically.
"""

from repro.corpus.backend import LegacyCorpusError, open_backend
from repro.corpus.entry import CorpusEntry, content_id, transition_token
from repro.corpus.findings import FindingDatabase, FindingRecord
from repro.corpus.replay import replay_entry, replay_finding
from repro.corpus.scheduler import EnergyScheduler, prior_from_corpus
from repro.corpus.sqlite_backend import CorpusStats, SqliteCorpusBackend
from repro.corpus.store import CorpusStore, record_campaign

__all__ = [
    "CorpusEntry",
    "CorpusStats",
    "CorpusStore",
    "EnergyScheduler",
    "FindingDatabase",
    "FindingRecord",
    "LegacyCorpusError",
    "SqliteCorpusBackend",
    "content_id",
    "open_backend",
    "prior_from_corpus",
    "record_campaign",
    "replay_entry",
    "replay_finding",
    "transition_token",
]
