"""Coverage-guided corpus: persistent findings + cross-campaign seeds.

The corpus subsystem makes campaigns stateful *across* runs. Each
corpus directory is one SQLite (WAL) database,
:class:`~repro.corpus.sqlite_backend.SqliteCorpusBackend`, opened with
:func:`~repro.corpus.backend.open_backend` and called directly:

* entries — the packet sequences that unlocked state/transition
  coverage, content-addressed and ``cmin``-minimisable into a canonical
  seed set (:mod:`~repro.corpus.entry`);
* finding buckets — crashes keyed by ``(vendor, class,
  minimised-trigger hash)`` and deduplicated across runs
  (:mod:`~repro.corpus.findings`);
* :func:`~repro.corpus.store.campaign_batch` builds one campaign's
  write-back from its sent packets and
  :func:`~repro.corpus.store.ingest_batches` writes a fleet shard's
  batches in one transaction; a directory in the legacy JSON-file
  layout is refused with :class:`~repro.errors.LegacyCorpusError`;
* :class:`~repro.corpus.scheduler.EnergyScheduler` feeds visit counts
  (campaign-local plus the corpus's state frequencies) back into
  mutation scheduling;
* :mod:`~repro.corpus.replay` re-fires stored entries and findings
  against fresh targets, deterministically.
"""

from repro.corpus.backend import LegacyCorpusError, open_backend
from repro.corpus.entry import CorpusEntry, content_id, transition_token
from repro.corpus.findings import FindingRecord
from repro.corpus.replay import replay_entry, replay_finding
from repro.corpus.scheduler import EnergyScheduler
from repro.corpus.sqlite_backend import CorpusStats, SqliteCorpusBackend
from repro.corpus.store import record_campaign

__all__ = [
    "CorpusEntry",
    "CorpusStats",
    "EnergyScheduler",
    "FindingRecord",
    "LegacyCorpusError",
    "SqliteCorpusBackend",
    "content_id",
    "open_backend",
    "record_campaign",
    "replay_entry",
    "replay_finding",
    "transition_token",
]
