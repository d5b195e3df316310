"""Session registry: every job's lifecycle, persisted and recoverable.

One JSON manifest per job under ``<data_dir>/jobs/``, written
atomically (:func:`repro.durability.atomic_write`, like every other
store) so a poll or a crashed service never reads a torn record.
The in-memory map is the hot path; disk is the durability story.

**Write-ahead intents.** Every persist is two steps: the full new
record is first written atomically to ``jobs/wal/<job_id>.json`` (the
*intent*), then to the manifest, then the intent is removed. A crash —
SIGKILL at any instruction — therefore leaves one of three states, all
of which :meth:`SessionRegistry.recover` reconstructs exactly:

* intent absent, manifest old — the transition never became durable;
  it was also never acknowledged (callers persist *before* answering
  HTTP), so the client retries and nothing is lost;
* intent present, manifest old/absent/torn — recovery replays the
  intent over the manifest; the transition survives, byte-identical;
* intent present (stale), manifest new — replay rewrites the same
  bytes; idempotent.

Torn manifest bytes (a fault-injected tear, a non-atomic filesystem)
are repaired from the intent the same way.

Per-tenant quota state is *derived* — :meth:`packets_committed` folds
over the manifests — so rebuilding the map at start-up rebuilds the
packet-budget accounting with it; there is no second ledger to drift.

Finished jobs also persist their merged :class:`FleetReport` JSON next
to the manifest — the byte-exact artifact the report endpoint serves.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from pathlib import Path

from repro.durability import atomic_write, temp_path
from repro.errors import JournalWriteError
from repro.faults import service_fault
from repro.service.jobs import JobRecord, JobSpec, UnknownJobError, new_job_id

_log = logging.getLogger(__name__)

JOBS_DIRNAME = "jobs"
WAL_DIRNAME = "wal"


class SessionRegistry:
    """Thread-safe job store backed by one manifest file per job."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.jobs_dir = self.root / JOBS_DIRNAME
        self.wal_dir = self.jobs_dir / WAL_DIRNAME
        self.wal_dir.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._jobs: dict[str, JobRecord] = {}
        self._by_idempotency: dict[tuple[str, str], str] = {}
        #: What the last :meth:`recover` call repaired, for metrics.
        self.last_recovery: dict[str, int] = {
            "intents_replayed": 0,
            "interrupted_jobs": 0,
        }

    # -- persistence ---------------------------------------------------------------

    def _manifest_path(self, job_id: str) -> Path:
        return self.jobs_dir / f"{job_id}.json"

    def _report_path(self, job_id: str) -> Path:
        return self.jobs_dir / f"{job_id}.report.json"

    def _intent_path(self, job_id: str) -> Path:
        return self.wal_dir / f"{job_id}.json"

    def _persist(self, record: JobRecord) -> None:
        """Write-ahead intent, then manifest, then clear the intent.

        :raises JournalWriteError: on ENOSPC/EIO from either write; the
            in-memory record keeps the new state, the caller decides
            whether the operation can be acknowledged.
        """
        text = json.dumps(record.to_dict(), indent=2, sort_keys=True) + "\n"
        manifest = self._manifest_path(record.job_id)
        intent = self._intent_path(record.job_id)
        try:
            service_fault("registry.intent")
            atomic_write(intent, text)
            if service_fault("registry.manifest.pre"):
                # Injected torn write: truncated bytes land on the real
                # manifest (bypassing the tmp+rename discipline), then
                # the write "fails" — recovery must repair from the
                # intent above.
                manifest.write_text(text[: len(text) // 3], encoding="utf-8")
                raise OSError(5, "injected torn manifest write")
            tmp = temp_path(manifest)
            tmp.write_text(text, encoding="utf-8")
            service_fault("registry.manifest.mid")
            os.replace(tmp, manifest)
        except OSError as error:
            raise JournalWriteError(manifest, error) from error
        try:
            intent.unlink()
        except OSError:
            pass  # a stale intent replays idempotently at recovery

    def _index(self, record: JobRecord) -> None:
        """Maintain the (tenant, idempotency key) → job index."""
        if record.idempotency_key:
            self._by_idempotency[
                (record.spec.tenant, record.idempotency_key)
            ] = record.job_id

    def _replay_intents(self) -> int:
        """Apply every pending write-ahead intent to its manifest.

        An intent is the full post-transition record, so replay is a
        blind rewrite — no merging, no versions to compare. Unreadable
        intents (torn mid-write; the transition was never durable and
        therefore never acknowledged) are discarded.
        """
        replayed = 0
        for path in sorted(self.wal_dir.glob("job-*.json")):
            try:
                record = JobRecord.from_dict(
                    json.loads(path.read_text(encoding="utf-8"))
                )
            except (OSError, ValueError, KeyError):
                _log.warning("discarding torn write-ahead intent %s", path)
                path.unlink(missing_ok=True)
                continue
            atomic_write(
                self._manifest_path(record.job_id),
                json.dumps(record.to_dict(), indent=2, sort_keys=True) + "\n",
            )
            path.unlink(missing_ok=True)
            replayed += 1
            _log.info(
                "replayed write-ahead intent for job %s (%s)",
                record.job_id,
                record.status,
            )
        return replayed

    def recover(self) -> list[JobRecord]:
        """Replay intents, load every persisted job; returns re-enqueues.

        Jobs found ``running`` were interrupted by a service death:
        they flip to ``aborted`` (resumable — their checkpoints are on
        disk) rather than silently resurrecting mid-flight. ``queued``
        jobs are returned for the scheduler to re-enqueue in original
        submission order.
        """
        requeue: list[JobRecord] = []
        interrupted = 0
        with self._lock:
            replayed = self._replay_intents()
            for path in sorted(self.jobs_dir.glob("job-*.json")):
                if path.name.endswith(".report.json"):
                    continue
                try:
                    record = JobRecord.from_dict(
                        json.loads(path.read_text(encoding="utf-8"))
                    )
                except (OSError, ValueError, KeyError):
                    _log.warning("skipping unreadable job manifest %s", path)
                    continue
                if record.status == "running":
                    record.status = "aborted"
                    record.error = "service restarted while job was running"
                    record.finished = time.time()
                    interrupted += 1
                    self._persist(record)
                self._jobs[record.job_id] = record
                self._index(record)
                if record.status == "queued":
                    requeue.append(record)
            self.last_recovery = {
                "intents_replayed": replayed,
                "interrupted_jobs": interrupted,
            }
        return sorted(requeue, key=lambda record: record.created)

    # -- CRUD ----------------------------------------------------------------------

    def create(
        self,
        spec: JobSpec,
        resume_of: str | None = None,
        idempotency_key: str | None = None,
        auto_resume_attempts: int = 0,
    ) -> JobRecord:
        record = JobRecord(
            job_id=new_job_id(),
            spec=spec,
            created=time.time(),
            resume_of=resume_of,
            idempotency_key=idempotency_key,
            auto_resume_attempts=auto_resume_attempts,
        )
        with self._lock:
            while record.job_id in self._jobs:  # same-second collision
                record.job_id = new_job_id()
            self._jobs[record.job_id] = record
            self._index(record)
            try:
                self._persist(record)
            except JournalWriteError:
                # Never acknowledged → never admitted: drop the record
                # so it cannot hold quota the tenant was not charged
                # for. (A durable intent may still replay it at the
                # next recovery; an idempotent retry then finds it.)
                del self._jobs[record.job_id]
                if record.idempotency_key:
                    self._by_idempotency.pop(
                        (spec.tenant, record.idempotency_key), None
                    )
                raise
        return record

    def get(self, job_id: str) -> JobRecord:
        with self._lock:
            record = self._jobs.get(job_id)
        if record is None:
            raise UnknownJobError(job_id)
        return record

    def find_idempotent(self, tenant: str, key: str) -> JobRecord | None:
        """The job a previous submit with this key created, if any."""
        with self._lock:
            job_id = self._by_idempotency.get((tenant, key))
            return self._jobs.get(job_id) if job_id is not None else None

    def update(self, job_id: str, **fields) -> JobRecord:
        """Apply *fields* to the job and persist the new manifest."""
        with self._lock:
            record = self._jobs.get(job_id)
            if record is None:
                raise UnknownJobError(job_id)
            for key, value in fields.items():
                setattr(record, key, value)
            self._persist(record)
        return record

    def jobs(self, tenant: str | None = None) -> list[JobRecord]:
        """Snapshot of every job (optionally one tenant's), by creation."""
        with self._lock:
            records = list(self._jobs.values())
        if tenant is not None:
            records = [
                record for record in records if record.spec.tenant == tenant
            ]
        return sorted(records, key=lambda record: (record.created, record.job_id))

    # -- quota inputs --------------------------------------------------------------

    def active_count(self, tenant: str) -> int:
        """Jobs currently holding a concurrency slot (queued + running)."""
        with self._lock:
            return sum(
                1
                for record in self._jobs.values()
                if record.spec.tenant == tenant and record.active
            )

    def packets_committed(self, tenant: str) -> int:
        """Cumulative worst-case packet spend across the tenant's jobs.

        Resume jobs charge nothing — their packets were charged when
        the original job was admitted, and a resume re-runs at most
        what the original would have. Jobs cancelled while still queued
        carry ``quota_refunded`` and charge nothing either: they never
        dispatched a packet.
        """
        with self._lock:
            return sum(
                record.spec.packets_requested
                for record in self._jobs.values()
                if record.spec.tenant == tenant
                and record.resume_of is None
                and not record.quota_refunded
            )

    # -- reports -------------------------------------------------------------------

    def save_report(self, job_id: str, report_json: str) -> None:
        """Persist the merged fleet report verbatim (byte-exact)."""
        try:
            atomic_write(self._report_path(job_id), report_json)
        except OSError as error:
            raise JournalWriteError(self._report_path(job_id), error) from error

    def report_text(self, job_id: str) -> str | None:
        """The stored report JSON, byte-exact, or None when absent."""
        try:
            return self._report_path(job_id).read_text(encoding="utf-8")
        except OSError:
            return None
