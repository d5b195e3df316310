"""Fleet-wide telemetry: event journal, metrics, run introspection.

The observability layer the fuzzing-as-a-service control plane will be
a thin API over. Three pieces, all versioned like the fleet summary
codec:

* :mod:`repro.telemetry.journal` — append-only JSONL event journal per
  fleet run, with one writer: pool workers return their shard's
  encoded events, and the runtime appends them as it commits the
  shard's campaigns.
* :mod:`repro.telemetry.metrics` — hot-path-safe counters, gauges and
  histograms, flushed in batches at campaign/run boundaries and exposed
  as JSON snapshots and Prometheus text format.
* :mod:`repro.telemetry.runs` — queryable run history and a live fleet
  status view (``repro runs list|show|tail``).

:mod:`repro.telemetry.adapter` bridges the paper's per-campaign Logfile
(:mod:`repro.core.fuzz_log`) into the journal without forking schemas.
"""

from repro.telemetry.adapter import (
    CAMPAIGN_LOG_EVENT,
    journal_fuzz_log,
    log_entries_from_events,
)
from repro.telemetry.journal import (
    EVENT_SCHEMA_VERSION,
    EVENTS_FILENAME,
    JournalWriter,
    read_events,
)
from repro.telemetry.metrics import (
    METRICS_SCHEMA_VERSION,
    MetricsRegistry,
)
from repro.telemetry.recorder import (
    MANIFEST_SCHEMA_VERSION,
    PROFILES_DIRNAME,
    RunRecorder,
    new_run_id,
    read_manifest,
)
from repro.telemetry.runs import (
    RunInfo,
    list_runs,
    load_manifest,
    render_status,
    resolve_run,
    run_info,
    run_info_dict,
    run_status,
    status_to_dict,
    tail_run,
)

__all__ = [
    "CAMPAIGN_LOG_EVENT",
    "EVENTS_FILENAME",
    "EVENT_SCHEMA_VERSION",
    "JournalWriter",
    "MANIFEST_SCHEMA_VERSION",
    "METRICS_SCHEMA_VERSION",
    "MetricsRegistry",
    "PROFILES_DIRNAME",
    "RunInfo",
    "RunRecorder",
    "journal_fuzz_log",
    "list_runs",
    "load_manifest",
    "log_entries_from_events",
    "new_run_id",
    "read_events",
    "read_manifest",
    "render_status",
    "resolve_run",
    "run_info",
    "run_info_dict",
    "run_status",
    "status_to_dict",
    "tail_run",
]
