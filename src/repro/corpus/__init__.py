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
  shard writes back in one transaction, and
  :func:`~repro.corpus.migrate.migrate_to_sqlite` (``repro corpus
  migrate``) imports corpora written in the legacy JSON-file layout;
* :class:`~repro.corpus.scheduler.EnergyScheduler` feeds visit counts
  (campaign-local plus corpus prior) back into mutation scheduling;
* :mod:`~repro.corpus.replay` re-fires stored entries and findings
  against fresh targets, deterministically.
"""

from repro.corpus.backend import LegacyCorpusError, open_backend
from repro.corpus.entry import CorpusEntry, content_id, transition_token
from repro.corpus.findings import FindingDatabase, FindingRecord
from repro.corpus.migrate import MigrationError, migrate_to_sqlite
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
    "MigrationError",
    "SqliteCorpusBackend",
    "content_id",
    "migrate_to_sqlite",
    "open_backend",
    "prior_from_corpus",
    "record_campaign",
    "replay_entry",
    "replay_finding",
    "transition_token",
]
