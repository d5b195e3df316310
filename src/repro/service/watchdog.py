"""Supervision thread over the scheduler: the service heals itself.

Three jobs, one small loop:

* **Dispatcher liveness** — if the dispatcher thread ever dies (a bug,
  an injected ``dispatcher_crash`` fault), the watchdog restarts it;
  a job that was running under the dead dispatcher is flipped to
  ``aborted(resumable)`` first so the restart cannot strand it.
* **Wedge detection** — the running job must make *observable*
  progress: its telemetry run directory (journal, checkpoints, run
  manifest) must change within ``wedge_deadline`` seconds. The journal
  grows when the runtime dispatches a shard and when it commits one,
  not per campaign, so the deadline must cover one shard's run (with
  auto batch a shard is at most a quarter of a worker's share). A
  wedged job — hung worker the pool supervision could not unstick,
  dead pool, livelock — is aborted with a watchdog reason and lands
  ``aborted(resumable)``.
* **Deferred auto-resumes** — capped-backoff resumes queued by the
  scheduler fire from here too, so they run even while the dispatcher
  is blocked inside a job.

The loop touches only public scheduler/registry surfaces and treats
every probe as fallible: a watchdog must never take the service down.
"""

from __future__ import annotations

import logging
import threading
import time
from pathlib import Path

from repro.service.jobs import UnknownJobError
from repro.service.scheduler import JobScheduler
from repro.service.tenants import TenantManager

_log = logging.getLogger(__name__)


def _progress_signature(run_dir: Path) -> tuple:
    """A cheap fingerprint that changes whenever the run advances.

    Folds (name, size, mtime_ns) over the run's journal, checkpoints
    and manifest. Any shard dispatched or committed perturbs at least
    one of these; a wedged run perturbs none.
    """
    entries: list[tuple[str, int, int]] = []
    candidates: list[Path] = [run_dir / "events.jsonl", run_dir / "run.json"]
    checkpoints = run_dir / "checkpoints"
    if checkpoints.is_dir():
        candidates.extend(sorted(checkpoints.iterdir()))
    for path in candidates:
        try:
            stat = path.stat()
        except OSError:
            continue
        entries.append((path.name, stat.st_size, stat.st_mtime_ns))
    return tuple(entries)


class Watchdog:
    """Background supervisor for one :class:`JobScheduler`."""

    def __init__(
        self,
        scheduler: JobScheduler,
        tenants: TenantManager,
        interval: float = 1.0,
        wedge_deadline: float | None = None,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be > 0")
        if wedge_deadline is not None and wedge_deadline <= 0:
            raise ValueError("wedge_deadline must be > 0 (or None)")
        self.scheduler = scheduler
        self.tenants = tenants
        self.interval = interval
        self.wedge_deadline = wedge_deadline
        self.metrics = scheduler.metrics
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        # (job_id, signature, monotonic time the signature last changed)
        self._watched: tuple[str, tuple, float] | None = None

    # -- lifecycle -----------------------------------------------------------------

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._loop, name="service-watchdog", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.tick()
            except Exception:  # noqa: BLE001 — the watchdog must survive
                _log.exception("watchdog tick failed")

    # -- one supervision pass ------------------------------------------------------

    def tick(self) -> None:
        """One supervision pass (public so tests can drive it directly)."""
        if self.scheduler.ensure_dispatcher_alive():
            self.metrics.inc("service_watchdog_restarts")
            self.metrics.inc(
                "service_recoveries_total", kind="dispatcher_restart"
            )
        if self.scheduler.auto_resume:
            self.scheduler.service_auto_resume()
        if self.wedge_deadline is not None:
            self._check_wedge()

    def _check_wedge(self) -> None:
        job_id = self.scheduler.current_job
        if job_id is None:
            self._watched = None
            return
        try:
            record = self.scheduler.registry.get(job_id)
        except UnknownJobError:
            self._watched = None
            return
        if record.run_id is None:
            # Orchestrator not constructed yet; nothing to fingerprint.
            self._watched = None
            return
        run_dir = Path(self.tenants.runs_dir(record.spec.tenant)) / record.run_id
        signature = _progress_signature(run_dir)
        now = time.monotonic()
        if self._watched is None or self._watched[0] != job_id:
            self._watched = (job_id, signature, now)
            return
        _, last_signature, since = self._watched
        if signature != last_signature:
            self._watched = (job_id, signature, now)
            return
        if now - since > self.wedge_deadline:
            _log.warning(
                "job %s made no observable progress for %.1fs; aborting it "
                "as wedged",
                job_id,
                now - since,
            )
            self.metrics.inc("service_recoveries_total", kind="wedge_abort")
            self.scheduler.abort_job(
                job_id,
                f"no journal progress for {self.wedge_deadline:.0f}s",
            )
            self._watched = None
