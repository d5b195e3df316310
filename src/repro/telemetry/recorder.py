"""Orchestrator-side run recording: manifest, journal, metric folds.

A :class:`RunRecorder` owns one fleet run's telemetry directory::

    <root>/<run_id>/
        run.json        manifest (status, totals — cheap `runs list`)
        events.jsonl    event journal (this recorder is its one writer)
        metrics.json    versioned metrics snapshot (JSON exposition)
        metrics.prom    Prometheus text-format exposition
        profiles/       optional per-worker cProfile dumps (--profile)

The recorder is the run journal's one writer and the aggregation side
of the telemetry split: workers journal their shards in memory
(:func:`repro.core.runtime.run_shard`) and the runtime hands the lines
to :meth:`RunRecorder.append` as it commits the shard's campaigns. The
recorder folds worker metrics (shard spans, structural rejects) as
those lines are appended, and campaign summaries and the merged fleet
report into the metrics registry at run boundaries.

Lifecycle is crash-safe: a :func:`weakref.finalize` hook fires at
garbage collection or interpreter exit, so a run that is never
:meth:`~RunRecorder.close`\\ d (killed CLI, forgotten context manager)
still records a terminal ``run_abort`` event instead of leaving
silence — the manifest says ``aborted``, and every completed line
stays readable.
"""

from __future__ import annotations

import datetime
import json
import logging
import os
import secrets
import time
import weakref
from pathlib import Path

from repro.durability import atomic_write
from repro.errors import JournalWriteError
from repro.telemetry.journal import EVENTS_FILENAME, JournalWriter
from repro.telemetry.metrics import MetricsRegistry

_log = logging.getLogger(__name__)

#: Format version stamped on every run manifest.
MANIFEST_SCHEMA_VERSION = 1

MANIFEST_FILENAME = "run.json"
METRICS_JSON_FILENAME = "metrics.json"
METRICS_PROM_FILENAME = "metrics.prom"
PROFILES_DIRNAME = "profiles"

#: Bucket layout for per-shard wall latency (seconds).
SHARD_SECONDS_BUCKETS = (0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0)

#: Bucket layout for per-campaign simulated duration (seconds).
CAMPAIGN_SIM_BUCKETS = (1.0, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0, 600.0)


def new_run_id() -> str:
    """A sortable, collision-safe run identifier."""
    stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
    return f"{stamp}-{secrets.token_hex(3)}"


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat(
        timespec="seconds"
    )


def read_manifest(run_dir: str | Path) -> dict | None:
    """Parse a run directory's manifest; None when absent/unreadable."""
    path = Path(run_dir) / MANIFEST_FILENAME
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None


def _finalize_abandoned(run_dir_text: str) -> None:
    """Terminal cleanup for a run that was never closed.

    Registered via :func:`weakref.finalize`, so it runs when the
    recorder is garbage-collected *or* at interpreter exit — whichever
    comes first. Self-contained on purpose: at interpreter exit, module
    globals may already be torn down elsewhere.
    """
    run_dir = Path(run_dir_text)
    manifest = read_manifest(run_dir)
    if manifest is None or manifest.get("status") != "running":
        return
    try:
        writer = JournalWriter(
            run_dir / EVENTS_FILENAME,
            run_id=manifest.get("run_id", run_dir.name),
            worker="finalizer",
        )
        writer.emit(
            "run_abort",
            reason="recorder finalized before close() — killed or leaked run",
        )
        writer.close()
        manifest["status"] = "aborted"
        manifest["finished"] = _utc_now()
        atomic_write(
            run_dir / MANIFEST_FILENAME, json.dumps(manifest, indent=2) + "\n"
        )
    except OSError:  # pragma: no cover - telemetry must never mask exits
        pass


class RunRecorder:
    """Records one fleet run: journal, manifest, metrics, exposition."""

    def __init__(
        self,
        root: str | Path,
        workers: int,
        run_id: str | None = None,
        fleet_signature: str | None = None,
        resumed: bool = False,
    ) -> None:
        self.run_id = run_id if run_id is not None else new_run_id()
        self.root = Path(root)
        self.run_dir = self.root / self.run_id
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.workers = workers
        self.metrics = MetricsRegistry()
        self._journal = JournalWriter(
            self.run_dir / EVENTS_FILENAME,
            run_id=self.run_id,
            worker="orchestrator",
        )
        self._closed = False
        self._runs_recorded = 0
        self._shard_walls: list[float] = []
        self._worker_busy: dict[str, float] = {}
        self._totals = {"campaigns": 0, "packets": 0, "findings": 0}
        self._manifest = {
            "schema": MANIFEST_SCHEMA_VERSION,
            "run_id": self.run_id,
            "status": "running",
            "started": _utc_now(),
            "finished": None,
            "pid": os.getpid(),
            "workers": workers,
            "runs_recorded": 0,
            "fleet_signature": fleet_signature,
            "resumed": resumed,
            "failure_reason": None,
            **self._totals,
        }
        self._write_manifest()
        self._finalizer = weakref.finalize(
            self, _finalize_abandoned, str(self.run_dir)
        )
        _log.debug("run %s recording to %s", self.run_id, self.run_dir)

    # -- lifecycle -------------------------------------------------------------------

    def close(self) -> None:
        """Mark the run finished and release the journal."""
        if self._closed:
            return
        self._closed = True
        self._journal.emit("run_close", runs_recorded=self._runs_recorded)
        self._journal.close()
        self._manifest["status"] = "finished"
        self._manifest["finished"] = _utc_now()
        self._write_manifest()
        self._finalizer.detach()
        _log.debug("run %s closed", self.run_id)

    def record_failure(self, reason: str) -> None:
        """Terminally mark the run ``aborted``, with a cause.

        The crash-safety finalizer already flips an abandoned run to
        ``aborted``, but silently; this is the orchestrator-side path
        for a failure it actually caught — the manifest gets the
        exception text, the journal a ``run_abort`` event, and the
        committed campaigns' checkpoints stay on disk for ``--resume``.
        Idempotent with :meth:`close`: whichever runs first wins.
        """
        if self._closed:
            return
        self._closed = True
        # The failure being recorded may *be* the disk (ENOSPC on the
        # journal): best-effort every step, so a sick journal can never
        # stop the manifest from flipping to ``aborted``.
        try:
            self._journal.emit("run_abort", reason=reason)
        except (JournalWriteError, OSError, ValueError) as error:
            _log.warning(
                "run %s: journal unavailable while recording failure: %s",
                self.run_id,
                error,
            )
        self._journal.close()
        self._manifest["status"] = "aborted"
        self._manifest["failure_reason"] = reason
        self._manifest["finished"] = _utc_now()
        try:
            self._write_manifest()
        except OSError as error:
            _log.warning(
                "run %s: could not persist aborted manifest: %s",
                self.run_id,
                error,
            )
        self._finalizer.detach()
        _log.debug("run %s aborted: %s", self.run_id, reason)

    def __enter__(self) -> "RunRecorder":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- journal ---------------------------------------------------------------------

    def emit(self, event: str, **payload) -> dict:
        """Append one orchestrator event to the journal."""
        return self._journal.emit(event, **payload)

    def append(self, lines: list[str]) -> None:
        """Append committed worker events, and fold their metrics.

        *lines* are encoded events as :func:`repro.core.runtime.run_shard`
        returns them; they are written as they are, not re-encoded.
        """
        if lines:
            self._journal.append(lines)
            self._fold_worker_events(json.loads("[" + ",".join(lines) + "]"))

    def run_started(self, specs, workers: int, batch: int | None) -> None:
        """Record the start of one :meth:`FleetOrchestrator.run` call."""
        profiles: dict[str, None] = {}
        strategies: dict[str, None] = {}
        targets: dict[str, None] = {}
        for spec in specs:
            profiles.setdefault(spec.device_id)
            strategies.setdefault(spec.strategy)
            targets.setdefault(spec.target)
        self.emit(
            "run_start",
            run_index=self._runs_recorded,
            campaigns=len(specs),
            workers=workers,
            batch=batch,
            profiles=list(profiles),
            strategies=list(strategies),
            targets=list(targets),
        )

    # -- aggregation -----------------------------------------------------------------

    def record_run(
        self,
        fleet_report,
        wall_seconds: float,
        profiles_by_id: dict,
        supervision=None,
    ) -> None:
        """Fold one finished fleet run into journal + metrics.

        The per-campaign events are already in the journal (the runtime
        appends them as it commits); the report's ``(spec, summary)``
        campaign pairs feed the counters.

        :param supervision: the runtime's
            :class:`~repro.core.runtime.SupervisionStats` for this run,
            folded into retry/requeue counters. Deliberately *not* part
            of the fleet report — supervision activity varies with
            faults, the report must not.
        """
        for spec, summary in fleet_report.campaigns:
            self._fold_campaign(spec, summary, profiles_by_id)
        if supervision is not None:
            self._fold_supervision(supervision)
        self._fold_fleet_report(fleet_report, wall_seconds)
        self._totals["campaigns"] += len(fleet_report.campaigns)
        self._totals["packets"] += fleet_report.total_packets
        self._totals["findings"] += len(fleet_report.findings)
        self.emit(
            "run_end",
            run_index=self._runs_recorded,
            status="ok",
            campaigns=len(fleet_report.campaigns),
            packets=fleet_report.total_packets,
            findings=len(fleet_report.findings),
            wall_seconds=round(wall_seconds, 6),
            simulated_makespan_seconds=round(
                fleet_report.simulated_makespan_seconds, 6
            ),
        )
        self._runs_recorded += 1
        self._manifest["runs_recorded"] = self._runs_recorded
        self._manifest.update(self._totals)
        self._write_manifest()
        self.write_exposition()

    def write_exposition(self) -> None:
        """Write the JSON and Prometheus metric snapshots (atomic)."""
        atomic_write(
            self.run_dir / METRICS_JSON_FILENAME, self.metrics.to_json() + "\n"
        )
        atomic_write(
            self.run_dir / METRICS_PROM_FILENAME, self.metrics.to_prometheus()
        )

    # -- internals -------------------------------------------------------------------

    def _write_manifest(self) -> None:
        atomic_write(
            self.run_dir / MANIFEST_FILENAME,
            json.dumps(self._manifest, indent=2) + "\n",
        )

    def _fold_campaign(self, spec, summary, profiles_by_id: dict) -> None:
        metrics = self.metrics
        metrics.inc(
            "repro_campaigns_total", target=spec.target, strategy=spec.strategy
        )
        metrics.inc(
            "repro_packets_sent_total",
            summary.packets_sent,
            target=spec.target,
            strategy=spec.strategy,
        )
        metrics.inc(
            "repro_packets_malformed_total", summary.malformed, target=spec.target
        )
        metrics.inc(
            "repro_packets_received_total", summary.received, target=spec.target
        )
        metrics.inc(
            "repro_rejections_total", summary.rejections, target=spec.target
        )
        if summary.findings:
            metrics.inc(
                "repro_findings_total",
                len(summary.findings),
                target=spec.target,
                vendor=profiles_by_id[spec.device_id].vendor,
            )
        metrics.inc(
            "repro_coverage_unlocks_total",
            len(summary.coverage_samples),
            target=spec.target,
        )
        for name, value in (
            ("repro_corpus_entries_added_total", summary.corpus_entries_added),
            ("repro_corpus_findings_new_total", summary.corpus_findings_new),
            (
                "repro_corpus_findings_duplicate_total",
                summary.corpus_findings_duplicate,
            ),
        ):
            if value:
                metrics.inc(name, value)
        metrics.observe(
            "repro_campaign_sim_seconds",
            summary.elapsed_seconds,
            buckets=CAMPAIGN_SIM_BUCKETS,
        )

    def _fold_worker_events(self, events) -> None:
        """Shard spans and engine counters from appended worker events."""
        metrics = self.metrics
        busy: dict[str, float] = {}
        for event in events:
            kind = event.get("event")
            if kind == "shard_end":
                wall = float(event.get("wall_seconds", 0.0))
                worker = str(event.get("worker"))
                self._shard_walls.append(wall)
                busy[worker] = busy.get(worker, 0.0) + wall
                metrics.inc("repro_shards_total", worker=worker)
                metrics.observe(
                    "repro_shard_seconds", wall, buckets=SHARD_SECONDS_BUCKETS
                )
            elif kind == "campaign_end":
                outcomes = event.get("engine_outcomes")
                if outcomes:
                    rejects = outcomes.get("structural-reject", 0)
                    if rejects:
                        metrics.inc(
                            "repro_structural_rejects_total",
                            rejects,
                            target=event.get("target", "unknown"),
                        )
        for worker, seconds in busy.items():
            current = self._worker_busy.get(worker, 0.0) + seconds
            self._worker_busy[worker] = current
            metrics.set_gauge(
                "repro_worker_busy_seconds", round(current, 6), worker=worker
            )
        if len(self._shard_walls) >= 2:
            ordered = sorted(self._shard_walls)
            median = ordered[len(ordered) // 2]
            metrics.set_gauge(
                "repro_straggler_lag_seconds", round(ordered[-1] - median, 6)
            )

    def _fold_supervision(self, supervision) -> None:
        """Supervisor activity counters — zero on a healthy run."""
        metrics = self.metrics
        for name, value in (
            ("repro_shard_retries_total", supervision.retries),
            ("repro_shards_requeued_total", supervision.requeued),
            ("repro_worker_crashes_total", supervision.worker_crashes),
            ("repro_shard_timeouts_total", supervision.timeouts),
            ("repro_pool_restarts_total", supervision.pool_restarts),
            (
                "repro_summary_decode_failures_total",
                supervision.decode_failures,
            ),
            ("repro_shard_bisections_total", supervision.bisections),
            (
                "repro_quarantined_campaigns_total",
                len(supervision.quarantined),
            ),
        ):
            if value:
                metrics.inc(name, value)

    def _fold_fleet_report(self, fleet_report, wall_seconds: float) -> None:
        metrics = self.metrics
        metrics.inc("repro_fleet_runs_total")
        for target, rows in fleet_report.coverage_by_target().items():
            metrics.set_gauge("repro_merged_states", len(rows), target=target)
        for target, space in fleet_report.state_spaces:
            metrics.set_gauge("repro_state_space", space, target=target)
        metrics.set_gauge(
            "repro_simulated_makespan_seconds",
            round(fleet_report.simulated_makespan_seconds, 6),
        )
        metrics.set_gauge("repro_fleet_wall_seconds", round(wall_seconds, 6))
        metrics.set_gauge(
            "repro_findings_deduplicated", len(fleet_report.findings)
        )
