"""Job scheduler: FIFO-within-priority onto one shared warm pool.

The scheduler owns the only :class:`~repro.core.runtime.FleetRuntime`
in the service. Worker processes are started once and stay warm across
jobs; each job's :class:`~repro.core.runtime.FleetContext` — its
config, corpus namespace, telemetry run — ships with its shard
messages. Jobs therefore pay zero pool start-up after the first, which
is the entire point of fronting the runtime with a service.

Dispatch is a single thread draining a priority heap ordered by
``(priority, submission sequence)`` — strict FIFO within a priority
band. One job runs at a time: the supervised dispatch loop assumes
exclusive pool ownership (deadlines, restarts), so job concurrency is
queueing concurrency, exactly like a CI runner with one executor.

**Quotas** are enforced exactly at submit time under the scheduler
lock: a tenant's queued+running job count must stay within
``max_active_jobs`` and its cumulative worst-case packet spend within
``packet_budget`` — both computed from the registry, which the same
lock serialises against concurrent submits. Cancelling a job that is
still *queued* refunds its packet charge exactly once — the refund
flag rides in the same atomic manifest write as the status flip, so a
replayed cancel (client retry, service restart) cannot refund twice.

**Idempotent submits**: :meth:`JobScheduler.submit_idempotent` keys the
admission on the tenant's ``Idempotency-Key`` — a replay returns the
original record without re-charging quota, which is what makes client
retries over a flaky link (or across a service crash) safe.

**Cancel** sets the job's abort event. A queued job flips to
``cancelled`` immediately; a running one is interrupted at the
runtime's next dispatch step (the runtime waits for its in-flight
shards and commits and checkpoints the ready prefix — the resume
trail), surfaces as
:class:`~repro.core.runtime.AbortRequested`, and the orchestrator's
failure path records an ``aborted`` manifest before the job lands in
``cancelled``.

**Resume** submits a new job that reuses the terminal job's spec and
telemetry run id; the orchestrator's checkpoint/resume machinery
re-runs only the missing campaigns and merges byte-identically.

**Self-healing**: with ``auto_resume`` enabled, jobs the service finds
``aborted(resumable)`` at start-up — and jobs the watchdog aborts for
wedging mid-run — are re-submitted automatically under a capped retry
policy (per-chain counter in the manifest, capped exponential
backoff). The watchdog (:mod:`repro.service.watchdog`) also restarts
the dispatcher thread itself if it ever dies.
"""

from __future__ import annotations

import heapq
import logging
import threading
import time

from repro.core.fleet import FleetOrchestrator
from repro.core.runtime import SHARD_TIMEOUT, AbortRequested, FleetRuntime
from repro.durability import backoff_delay
from repro.errors import JournalWriteError
from repro.faults import service_fault
from repro.service.jobs import (
    JobRecord,
    JobSpec,
    JobStateError,
    QuotaExceededError,
    ServiceSaturatedError,
    UnknownJobError,
)
from repro.service.registry import SessionRegistry
from repro.service.tenants import TenantManager
from repro.targets import make_target, target_names
from repro.telemetry import MetricsRegistry

_log = logging.getLogger(__name__)


class JobScheduler:
    """Priority queue + dispatcher thread + shared warm runtime."""

    def __init__(
        self,
        registry: SessionRegistry,
        tenants: TenantManager,
        pool_workers: int = 2,
        shard_timeout: float = SHARD_TIMEOUT,
        queue_depth: int | None = None,
        auto_resume: bool = False,
        auto_resume_max_attempts: int = 3,
        auto_resume_backoff: float = 0.5,
        auto_resume_backoff_cap: float = 30.0,
    ) -> None:
        if pool_workers < 1:
            raise ValueError("pool_workers must be >= 1")
        if queue_depth is not None and queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        self.registry = registry
        self.tenants = tenants
        self.pool_workers = pool_workers
        self.shard_timeout = shard_timeout
        self.queue_depth = queue_depth
        self.auto_resume = auto_resume
        self.auto_resume_max_attempts = auto_resume_max_attempts
        self.auto_resume_backoff = auto_resume_backoff
        self.auto_resume_backoff_cap = auto_resume_backoff_cap
        self.metrics = MetricsRegistry()
        self.draining = False
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._heap: list[tuple[int, int, str]] = []
        self._sequence = 0
        self._abort_events: dict[str, threading.Event] = {}
        self._abort_reasons: dict[str, str] = {}
        self._pending_resumes: list[tuple[float, str]] = []
        self._runtime: FleetRuntime | None = None
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._current_job: str | None = None
        self._started = False

    # -- lifecycle -----------------------------------------------------------------

    def start(self) -> None:
        """Recover persisted jobs and start the dispatcher thread."""
        for record in self.registry.recover():
            with self._lock:
                self._push(record)
        recovery = self.registry.last_recovery
        if recovery.get("intents_replayed"):
            self.metrics.inc(
                "service_recoveries_total",
                recovery["intents_replayed"],
                kind="intent_replay",
            )
        if recovery.get("interrupted_jobs"):
            self.metrics.inc(
                "service_recoveries_total",
                recovery["interrupted_jobs"],
                kind="interrupted_job",
            )
        self._started = True
        # Scan for aborted chain tails before the dispatcher runs: a job
        # the dispatcher aborts (and queues its own resume for) must not
        # also be picked up here as a second resume of the same tail.
        if self.auto_resume:
            self._schedule_startup_resumes()
        self._spawn_dispatcher()

    def _spawn_dispatcher(self) -> None:
        self._thread = threading.Thread(
            target=self._dispatch_loop, name="job-dispatcher", daemon=True
        )
        self._thread.start()

    def ensure_dispatcher_alive(self) -> bool:
        """Restart the dispatcher thread if it died; True if restarted.

        A dispatcher death mid-job strands the job as ``running`` with
        nobody driving it: the orphan is flipped to
        ``aborted(resumable)`` (checkpoints are on disk) before the new
        dispatcher starts, so auto-resume can pick it up.
        """
        with self._lock:
            if not self._started or self._stop.is_set():
                return False
            if self._thread is not None and self._thread.is_alive():
                return False
            orphan = self._current_job
            self._current_job = None
        if orphan is not None:
            self._mark_aborted(
                orphan, "dispatcher died while job was running"
            )
            if self.auto_resume:
                self._queue_auto_resume(orphan)
        _log.warning("dispatcher thread died; restarting it")
        self._spawn_dispatcher()
        return True

    def stop(
        self,
        abort_running: bool = True,
        timeout: float = 30.0,
        reason: str = "cancel",
    ) -> None:
        """Stop dispatching; optionally abort the in-flight job.

        With ``abort_running`` (the default) the running job's abort
        event fires — the runtime waits for its in-flight shards and
        commits and checkpoints the ready prefix, and the job lands
        terminal per *reason* (``cancel`` → ``cancelled``,
        ``drain`` → ``aborted`` and resumable). Without it, the
        dispatcher finishes the current job before exiting (queued jobs
        stay queued; they re-enqueue on the next start via the
        registry).
        """
        with self._lock:
            self._stop.set()
            if abort_running and self._current_job is not None:
                self._abort_reasons.setdefault(self._current_job, reason)
                event = self._abort_events.get(self._current_job)
                if event is not None:
                    event.set()
            self._wakeup.notify_all()
        if self._thread is not None:
            self._thread.join(timeout)
        if self._runtime is not None:
            self._runtime.close()
            self._runtime = None

    def begin_drain(self) -> None:
        """Stop admission; running work continues toward checkpoints."""
        self.draining = True

    def drain(self, timeout: float = 30.0) -> None:
        """Graceful shutdown: no new admissions, the in-flight shards
        are committed and checkpointed, the running job lands
        ``aborted(resumable)``."""
        self.begin_drain()
        self.stop(abort_running=True, timeout=timeout, reason="drain")

    def _ensure_runtime(self) -> FleetRuntime:
        if self._runtime is None:
            # A job may name any target. Load every built-in before the
            # pool forks, so its workers inherit them and no job pays a
            # target's first-use import.
            for name in target_names():
                make_target(name)
            self._runtime = FleetRuntime(
                workers=self.pool_workers, shard_timeout=self.shard_timeout
            )
        return self._runtime

    # -- submission ----------------------------------------------------------------

    def _push(self, record: JobRecord) -> None:
        self._sequence += 1
        heapq.heappush(
            self._heap, (record.spec.priority, self._sequence, record.job_id)
        )
        self._wakeup.notify_all()

    def _check_admission(self, spec: JobSpec, charge_packets: bool) -> None:
        """Global saturation first, then the tenant's own quota."""
        if self.draining:
            raise ServiceSaturatedError(
                "service is draining; no new jobs are admitted",
                retry_after=5.0,
            )
        if self.queue_depth is not None:
            queued = sum(
                1
                for record in self.registry.jobs()
                if record.status == "queued"
            )
            if queued >= self.queue_depth:
                self.metrics.inc("service_queue_rejected_total")
                raise ServiceSaturatedError(
                    f"job queue is full ({queued} queued, "
                    f"depth {self.queue_depth})",
                    retry_after=1.0,
                )
        quota = self.tenants.quota(spec.tenant)
        active = self.registry.active_count(spec.tenant)
        if active >= quota.max_active_jobs:
            raise QuotaExceededError(
                f"tenant {spec.tenant!r} already has {active} active job(s) "
                f"(limit {quota.max_active_jobs})"
            )
        if charge_packets:
            committed = self.registry.packets_committed(spec.tenant)
            if committed + spec.packets_requested > quota.packet_budget:
                raise QuotaExceededError(
                    f"tenant {spec.tenant!r} packet budget exhausted: "
                    f"{committed} committed + {spec.packets_requested} "
                    f"requested > {quota.packet_budget}"
                )

    def submit(
        self, spec: JobSpec, idempotency_key: str | None = None
    ) -> JobRecord:
        """Validate, admit against quotas, persist, enqueue."""
        record, _created = self.submit_idempotent(spec, idempotency_key)
        return record

    def submit_idempotent(
        self, spec: JobSpec, idempotency_key: str | None = None
    ) -> tuple[JobRecord, bool]:
        """Like :meth:`submit`, reporting whether a job was created.

        With a key, a replayed submit — client retry after a dropped
        connection, a crashed ack, a service restart — returns the
        original record and charges nothing; the (tenant, key) lookup
        and the create happen under one lock, so two racing submits
        with the same key admit exactly one job.
        """
        spec.validate()
        with self._lock:
            if idempotency_key is not None:
                existing = self.registry.find_idempotent(
                    spec.tenant, idempotency_key
                )
                if existing is not None:
                    self.metrics.inc(
                        "service_idempotent_replays_total",
                        tenant=spec.tenant,
                    )
                    return existing, False
            # Quota check and job creation under one lock: two racing
            # submits cannot both pass a last-slot check.
            self._check_admission(spec, charge_packets=True)
            record = self.registry.create(
                spec, idempotency_key=idempotency_key
            )
            self._abort_events[record.job_id] = threading.Event()
            self._push(record)
            # Crash-anywhere point: the charge (the manifest above) is
            # durable, the HTTP ack is not yet on the wire.
            service_fault("scheduler.quota.charge")
        self.metrics.inc("service_jobs_submitted_total", tenant=spec.tenant)
        self._update_queue_gauge()
        return record, True

    def resume(
        self, job_id: str, tenant: str, auto: bool = False
    ) -> JobRecord | None:
        """Submit a continuation of a cancelled/aborted job.

        A job has at most one continuation: the check and the create
        share one lock, so a manual resume racing an automatic one
        cannot fork the chain. A manual resume of an already-resumed
        job raises :class:`JobStateError` naming the existing child; an
        automatic one returns None and creates nothing.
        """
        original = self.registry.get(job_id)
        if original.spec.tenant != tenant:
            raise UnknownJobError(job_id)
        if not original.resumable:
            raise JobStateError(
                f"job {job_id} is {original.status} and has "
                f"{'a' if original.run_id else 'no'} recorded run; only "
                "cancelled/aborted jobs with a run can be resumed"
            )
        with self._lock:
            child = next(
                (
                    record
                    for record in self.registry.jobs()
                    if record.resume_of == job_id
                ),
                None,
            )
            if child is not None:
                if auto:
                    return None
                raise JobStateError(
                    f"job {job_id} was already resumed as {child.job_id}"
                )
            self._check_admission(original.spec, charge_packets=False)
            record = self.registry.create(
                original.spec,
                resume_of=job_id,
                auto_resume_attempts=(
                    original.auto_resume_attempts + 1 if auto else 0
                ),
            )
            # The continuation records into the *same* telemetry run:
            # that is where the checkpoints live.
            self.registry.update(record.job_id, run_id=original.run_id)
            self._abort_events[record.job_id] = threading.Event()
            self._push(record)
        self.metrics.inc("service_jobs_resumed_total", tenant=tenant)
        if auto:
            self.metrics.inc("service_recoveries_total", kind="auto_resume")
        self._update_queue_gauge()
        return self.registry.get(record.job_id)

    def cancel(self, job_id: str, tenant: str) -> JobRecord:
        """Cancel a queued or running job (idempotent per state)."""
        record = self.registry.get(job_id)
        if record.spec.tenant != tenant:
            raise UnknownJobError(job_id)
        with self._lock:
            record = self.registry.get(job_id)
            if record.status == "queued":
                # The refund travels in the same atomic manifest write
                # as the status flip: replaying this cancel (retry,
                # restart) finds the job already cancelled and raises,
                # so the budget is handed back exactly once.
                record = self.registry.update(
                    job_id,
                    status="cancelled",
                    error="cancelled while queued",
                    finished=time.time(),
                    quota_refunded=True,
                )
            elif record.status == "running":
                self._abort_reasons.setdefault(job_id, "cancel")
                self._abort_events[job_id].set()
            else:
                raise JobStateError(
                    f"job {job_id} is already {record.status}"
                )
        self.metrics.inc("service_jobs_cancelled_total", tenant=tenant)
        self._update_queue_gauge()
        return record

    # -- self-healing --------------------------------------------------------------

    def abort_job(self, job_id: str, reason: str) -> None:
        """Ask the running *job_id* to abort with a non-cancel reason.

        Used by the watchdog for wedged jobs: the abort fires at the
        runtime's next dispatch step, the job lands
        ``aborted(resumable)``, and — with auto-resume on — a capped
        retry is scheduled.
        """
        with self._lock:
            event = self._abort_events.get(job_id)
            if event is None:
                return
            self._abort_reasons.setdefault(job_id, reason)
            event.set()

    def _auto_resume_delay(self, attempts: int) -> float:
        """Capped exponential backoff for the Nth automatic resume."""
        if attempts <= 0:
            return 0.0
        return backoff_delay(
            attempts - 1, self.auto_resume_backoff, self.auto_resume_backoff_cap
        )

    def _queue_auto_resume(self, job_id: str) -> None:
        record = self.registry.get(job_id)
        if record.auto_resume_attempts >= self.auto_resume_max_attempts:
            _log.warning(
                "job %s exhausted its %d automatic resume(s); leaving it "
                "aborted",
                job_id,
                self.auto_resume_max_attempts,
            )
            return
        delay = self._auto_resume_delay(record.auto_resume_attempts)
        with self._lock:
            self._pending_resumes.append((time.monotonic() + delay, job_id))
            self._wakeup.notify_all()

    def _schedule_startup_resumes(self) -> None:
        """Queue an automatic resume for every recoverable aborted job.

        Only chain *tails* are eligible — a job someone (or a previous
        recovery) already resumed is skipped, so one failure never
        fans out into parallel continuations. User-cancelled jobs are
        left alone: the operator said stop.
        """
        records = self.registry.jobs()
        resumed_ids = {
            record.resume_of
            for record in records
            if record.resume_of is not None
        }
        for record in records:
            if (
                record.status == "aborted"
                and record.resumable
                and record.job_id not in resumed_ids
            ):
                self._queue_auto_resume(record.job_id)

    def service_auto_resume(self) -> int:
        """Fire every due pending automatic resume; returns the count.

        Called from the dispatcher's idle loop and the watchdog tick —
        whichever comes first — so delayed resumes fire even if one of
        the two is the thing that just died.
        """
        now = time.monotonic()
        due: list[str] = []
        with self._lock:
            keep: list[tuple[float, str]] = []
            for when, job_id in self._pending_resumes:
                if when <= now:
                    due.append(job_id)
                else:
                    keep.append((when, job_id))
            self._pending_resumes = keep
        fired = 0
        for job_id in due:
            try:
                record = self.registry.get(job_id)
                replacement = self.resume(
                    job_id, record.spec.tenant, auto=True
                )
            except (JobStateError, QuotaExceededError,
                    ServiceSaturatedError, UnknownJobError) as error:
                _log.warning("auto-resume of %s skipped: %s", job_id, error)
                continue
            if replacement is None:
                continue  # already resumed (manually) — nothing to do
            fired += 1
            _log.info(
                "auto-resumed job %s as %s (attempt %d/%d)",
                job_id,
                replacement.job_id,
                replacement.auto_resume_attempts,
                self.auto_resume_max_attempts,
            )
        return fired

    # -- dispatch ------------------------------------------------------------------

    def _next_job(self) -> JobRecord | None:
        """Pop the next runnable job; None when idle or stopping.

        Waits at most one short tick before giving the dispatch loop
        control back — deferred auto-resumes are serviced between
        ticks, and they need the same lock this wait holds.
        """
        with self._lock:
            if self._stop.is_set():
                return None
            while self._heap:
                _, _, job_id = heapq.heappop(self._heap)
                try:
                    record = self.registry.get(job_id)
                except UnknownJobError:
                    continue
                if record.status != "queued":
                    continue  # cancelled while queued
                self._current_job = job_id
                return record
            self._wakeup.wait(timeout=0.2)
            return None

    def _dispatch_loop(self) -> None:
        while not self._stop.is_set():
            service_fault("scheduler.dispatch")
            if self.auto_resume:
                self.service_auto_resume()
            record = self._next_job()
            if record is None:
                continue
            try:
                self._execute(record)
            except Exception:  # noqa: BLE001 — dispatcher must survive
                _log.exception("job %s dispatch failed", record.job_id)
            finally:
                with self._lock:
                    self._current_job = None
                self._update_queue_gauge()

    def _safe_update(self, job_id: str, **fields) -> None:
        """Persist a terminal transition, surviving a sick disk.

        The in-memory record always takes the new state; if the
        manifest write fails (ENOSPC — quite possibly the same failure
        that aborted the job) the dispatcher must keep serving, so the
        error is logged, not raised.
        """
        try:
            self.registry.update(job_id, **fields)
        except JournalWriteError as error:
            _log.error(
                "job %s: could not persist %s: %s",
                job_id,
                fields.get("status", "update"),
                error,
            )

    def _mark_aborted(self, job_id: str, reason: str) -> None:
        self._safe_update(
            job_id,
            status="aborted",
            error=reason,
            finished=time.time(),
        )
        try:
            tenant = self.registry.get(job_id).spec.tenant
        except UnknownJobError:
            return
        self.metrics.inc(
            "service_jobs_finished_total", tenant=tenant, status="aborted"
        )

    def _execute(self, record: JobRecord) -> None:
        spec = record.spec
        abort_event = self._abort_events.setdefault(
            record.job_id, threading.Event()
        )
        if abort_event.is_set():
            self._safe_update(
                record.job_id,
                status="cancelled",
                error="cancelled before dispatch",
                finished=time.time(),
                quota_refunded=True,
            )
            return
        started = time.time()
        try:
            self.registry.update(
                record.job_id, status="running", started=started
            )
        except JournalWriteError as error:
            self._mark_aborted(
                record.job_id, f"durability write failed: {error}"
            )
            return
        self.metrics.inc("service_jobs_started_total", tenant=spec.tenant)
        orchestrator = None
        try:
            orchestrator = FleetOrchestrator.from_spec(
                spec,
                workers=self.pool_workers,
                corpus_dir=(
                    str(self.tenants.corpus_dir(spec.tenant))
                    if spec.use_corpus
                    else None
                ),
                telemetry_dir=str(self.tenants.runs_dir(spec.tenant)),
                resume_run_id=record.run_id if record.resume_of else None,
                runtime=self._ensure_runtime(),
                abort_check=abort_event.is_set,
            )
            # Publish the run id before dispatch so status/cancel/resume
            # can find the run directory while the job runs.
            self.registry.update(record.job_id, run_id=orchestrator.run_id)
            report = orchestrator.run()
        except AbortRequested:
            reason = self._abort_reasons.pop(record.job_id, "cancel")
            if reason == "cancel":
                self._safe_update(
                    record.job_id,
                    status="cancelled",
                    error="cancelled by request",
                    finished=time.time(),
                )
                status = "cancelled"
            else:
                # Drain or watchdog: the job did not fail and nobody
                # asked for it to stop — it is an abort the service
                # owes a resume for.
                self._mark_aborted(
                    record.job_id,
                    (
                        "service draining; checkpoints are resumable"
                        if reason == "drain"
                        else f"aborted by watchdog: {reason}"
                    ),
                )
                if reason != "drain" and self.auto_resume:
                    self._queue_auto_resume(record.job_id)
                status = "aborted"
            if status == "cancelled":
                self.metrics.inc(
                    "service_jobs_finished_total",
                    tenant=spec.tenant,
                    status="cancelled",
                )
            return
        except JournalWriteError as error:
            # Typed durability failure (ENOSPC/EIO on journal or
            # manifest): a clean resumable abort with the cause as the
            # failure reason, never a traceback.
            self._mark_aborted(
                record.job_id, f"durability write failed: {error}"
            )
            if self.auto_resume:
                self._queue_auto_resume(record.job_id)
            return
        except BaseException as error:  # noqa: BLE001 — record, keep serving
            self._mark_aborted(
                record.job_id, f"{type(error).__name__}: {error}"
            )
            return
        finally:
            self._abort_reasons.pop(record.job_id, None)
            if orchestrator is not None:
                orchestrator.close()
        try:
            self.registry.save_report(record.job_id, report.to_json())
            self.registry.update(
                record.job_id,
                status="finished",
                finished=time.time(),
                campaigns=len(report.campaigns),
                packets=report.total_packets,
                findings=len(report.findings),
                merged_state_count=report.merged_state_count,
            )
        except JournalWriteError as error:
            # The run completed but its result could not be made
            # durable: resumable abort — a resume replays from the
            # checkpoints and retries the persist.
            self._mark_aborted(
                record.job_id, f"durability write failed: {error}"
            )
            if self.auto_resume:
                self._queue_auto_resume(record.job_id)
            return
        self.metrics.inc(
            "service_jobs_finished_total", tenant=spec.tenant, status="finished"
        )
        self.metrics.inc(
            "service_packets_total", report.total_packets, tenant=spec.tenant
        )
        self.metrics.observe(
            "service_job_wall_seconds",
            time.time() - started,
            buckets=(0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 300.0),
        )

    # -- introspection -------------------------------------------------------------

    @property
    def current_job(self) -> str | None:
        """The job the dispatcher is executing right now, if any."""
        with self._lock:
            return self._current_job

    def _update_queue_gauge(self) -> None:
        records = self.registry.jobs()
        for status in ("queued", "running"):
            self.metrics.set_gauge(
                "service_jobs_active",
                sum(1 for record in records if record.status == status),
                status=status,
            )

    def wait(self, job_id: str, timeout: float = 60.0) -> JobRecord:
        """Poll until the job reaches a terminal status (tests, CLI)."""
        deadline = time.monotonic() + timeout
        while True:
            record = self.registry.get(job_id)
            if not record.active:
                return record
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {record.status} after {timeout}s"
                )
            time.sleep(0.02)
