"""Watchdog tests: dispatcher resurrection, wedge aborts, capped resumes.

The self-healing contract: a dead dispatcher is restarted (its orphaned
job aborted resumable), a running job with no observable progress past
the deadline is aborted resumable, and automatic resumes retry a
failing chain a bounded number of times — never forever.
"""

from __future__ import annotations

import time

import pytest

from repro.faults import (
    FaultPlan,
    FaultSpec,
    install_service_faults,
)
from repro.service.jobs import JobSpec
from repro.service.registry import SessionRegistry
from repro.service.scheduler import JobScheduler
from repro.service.tenants import TenantManager
from repro.service.watchdog import Watchdog


def spec(tenant: str = "alpha", **overrides) -> JobSpec:
    fields = dict(
        tenant=tenant,
        profiles=("D1",),
        strategies=("sequential",),
        budget=40,
    )
    fields.update(overrides)
    return JobSpec(**fields)


def make_scheduler(tmp_path, **kwargs) -> tuple[JobScheduler, TenantManager]:
    registry = SessionRegistry(tmp_path)
    tenants = TenantManager(tmp_path)
    return JobScheduler(registry, tenants, pool_workers=1, **kwargs), tenants


@pytest.fixture(autouse=True)
def _clear_faults():
    yield
    install_service_faults(None)


class TestDispatcherResurrection:
    def test_watchdog_restarts_a_crashed_dispatcher(self, tmp_path):
        """Injected dispatcher crash; the watchdog brings it back and the
        queued job still completes."""
        install_service_faults(
            FaultPlan(
                faults=(
                    FaultSpec(
                        kind="dispatcher_crash", site="scheduler.dispatch"
                    ),
                ),
                ledger_dir=str(tmp_path / "ledger"),
            )
        )
        scheduler, tenants = make_scheduler(tmp_path)
        watchdog = Watchdog(scheduler, tenants, interval=0.05)
        record = scheduler.submit(spec(budget=20))
        scheduler.start()  # first loop iteration dies on the fault
        try:
            deadline = time.monotonic() + 10
            while scheduler._thread.is_alive():
                if time.monotonic() > deadline:
                    pytest.fail("injected dispatcher crash never landed")
                time.sleep(0.01)
            assert watchdog.tick() is None  # restarts; fault is exhausted
            final = scheduler.wait(record.job_id, timeout=120)
            assert final.status == "finished", final.error
        finally:
            scheduler.stop()
        metrics = scheduler.metrics.to_prometheus()
        assert "service_watchdog_restarts 1" in metrics

    def test_orphaned_running_job_is_aborted_resumable(self, tmp_path):
        """Dispatcher died mid-job: the orphan flips aborted(resumable)."""
        scheduler, tenants = make_scheduler(tmp_path)
        record = scheduler.submit(spec())
        scheduler.registry.update(
            record.job_id, status="running", run_id="r-orphan"
        )
        # A scheduler whose dispatcher died while this job was current.
        scheduler._started = True
        scheduler._thread = None
        scheduler._current_job = record.job_id
        assert scheduler.ensure_dispatcher_alive()
        final = scheduler.registry.get(record.job_id)
        assert final.status == "aborted"
        assert final.resumable
        assert "dispatcher died" in final.error
        scheduler.stop()

    def test_ensure_alive_is_a_no_op_on_a_healthy_dispatcher(self, tmp_path):
        scheduler, _ = make_scheduler(tmp_path)
        scheduler.start()
        try:
            assert not scheduler.ensure_dispatcher_alive()
        finally:
            scheduler.stop()
        # And after a clean stop, no resurrection either.
        assert not scheduler.ensure_dispatcher_alive()


class TestWedgeDetection:
    def test_wedged_job_is_aborted_after_deadline(self, tmp_path):
        """A running job whose run dir never changes gets the abort."""
        scheduler, tenants = make_scheduler(tmp_path)
        watchdog = Watchdog(
            scheduler, tenants, interval=0.05, wedge_deadline=0.05
        )
        record = scheduler.submit(spec())
        scheduler.registry.update(
            record.job_id, status="running", run_id="r-wedge"
        )
        (tenants.runs_dir("alpha") / "r-wedge").mkdir(
            parents=True, exist_ok=True
        )
        scheduler._current_job = record.job_id

        watchdog.tick()  # records the baseline signature
        assert not scheduler._abort_events[record.job_id].is_set()
        time.sleep(0.1)
        watchdog.tick()  # past the deadline with no progress
        assert scheduler._abort_events[record.job_id].is_set()
        assert scheduler._abort_reasons[record.job_id].startswith(
            "no journal progress"
        )

    def test_progress_resets_the_wedge_clock(self, tmp_path):
        scheduler, tenants = make_scheduler(tmp_path)
        watchdog = Watchdog(
            scheduler, tenants, interval=0.05, wedge_deadline=0.05
        )
        record = scheduler.submit(spec())
        scheduler.registry.update(
            record.job_id, status="running", run_id="r-live"
        )
        run_dir = tenants.runs_dir("alpha") / "r-live"
        run_dir.mkdir(parents=True, exist_ok=True)
        scheduler._current_job = record.job_id

        watchdog.tick()
        time.sleep(0.1)
        # The run advanced: new journal bytes perturb the signature.
        (run_dir / "events.jsonl").write_text(
            '{"event": "x"}\n', encoding="utf-8"
        )
        watchdog.tick()  # progress seen, clock resets
        assert not scheduler._abort_events[record.job_id].is_set()

    def test_watchdog_abort_lands_resumable_on_a_real_job(self, tmp_path):
        """The abort-reason plumbing end to end: watchdog-style abort of
        a genuinely running job ends aborted(resumable), not cancelled."""
        scheduler, _ = make_scheduler(tmp_path)
        record = scheduler.submit(
            spec(
                profiles=("D1", "D2", "D3"),
                strategies=("sequential", "targeted"),
                budget=1200,
                batch=1,
            )
        )
        scheduler.start()
        try:
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                current = scheduler.registry.get(record.job_id)
                if current.status == "running" and current.run_id:
                    break
                if not current.active:
                    break
                time.sleep(0.01)
            if scheduler.registry.get(record.job_id).status == "running":
                scheduler.abort_job(
                    record.job_id, "no journal progress for 1s"
                )
            final = scheduler.wait(record.job_id, timeout=120)
        finally:
            scheduler.stop()
        if final.status == "finished":
            pytest.skip("job finished before the watchdog abort landed")
        assert final.status == "aborted"
        assert final.resumable
        assert "watchdog" in final.error


class TestAutoResume:
    def test_startup_auto_resume_finishes_an_aborted_job(self, tmp_path):
        """Service restart with --auto-resume: the interrupted job's
        chain completes without any operator action."""
        scheduler, _ = make_scheduler(tmp_path)
        record = scheduler.submit(
            spec(
                profiles=("D1", "D2", "D3"),
                strategies=("sequential", "targeted"),
                budget=1200,
                batch=1,
            )
        )
        scheduler.start()
        try:
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                current = scheduler.registry.get(record.job_id)
                if (
                    current.status == "running" and current.run_id
                ) or not current.active:
                    break
                time.sleep(0.01)
        finally:
            scheduler.drain()  # running job lands aborted(resumable)
        interrupted = scheduler.registry.get(record.job_id)
        if interrupted.status != "aborted":
            pytest.skip("job finished before the drain landed")

        fresh = JobScheduler(
            SessionRegistry(tmp_path),
            TenantManager(tmp_path),
            pool_workers=1,
            auto_resume=True,
            auto_resume_backoff=0.01,
        )
        fresh.start()
        try:
            deadline = time.monotonic() + 240
            resumed = None
            while time.monotonic() < deadline:
                resumed = next(
                    (
                        job
                        for job in fresh.registry.jobs()
                        if job.resume_of == record.job_id
                    ),
                    None,
                )
                if resumed is not None and not resumed.active:
                    break
                time.sleep(0.05)
            assert resumed is not None, "auto-resume never fired"
            assert resumed.auto_resume_attempts == 1
            assert resumed.status == "finished", resumed.error
            assert resumed.campaigns == 6
        finally:
            fresh.stop()
        assert "service_recoveries_total" in fresh.metrics.to_prometheus()

    def test_auto_resume_attempts_are_capped(self, tmp_path):
        """A chain that keeps failing stops after max attempts."""
        scheduler, _ = make_scheduler(
            tmp_path,
            auto_resume=True,
            auto_resume_max_attempts=2,
            auto_resume_backoff=0.01,
        )

        def always_failing_execute(record):
            scheduler.registry.update(
                record.job_id, status="running", started=time.time()
            )
            scheduler.registry.update(
                record.job_id,
                status="aborted",
                run_id="r-fail",
                error="boom",
                finished=time.time(),
            )
            scheduler._queue_auto_resume(record.job_id)

        scheduler._execute = always_failing_execute
        scheduler.submit(spec())
        scheduler.start()
        try:
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                jobs = scheduler.registry.jobs()
                if (
                    len(jobs) >= 3
                    and all(job.status == "aborted" for job in jobs)
                    and not scheduler._pending_resumes
                ):
                    break
                time.sleep(0.05)
            time.sleep(0.3)  # would-be extra resumes get a chance to fire
            jobs = scheduler.registry.jobs()
        finally:
            scheduler.stop()
        # Original + exactly max_attempts resumes, then the chain stops.
        assert len(jobs) == 3
        assert [job.auto_resume_attempts for job in jobs] == [0, 1, 2]
        assert all(job.status == "aborted" for job in jobs)

    def test_user_cancelled_jobs_are_not_auto_resumed(self, tmp_path):
        """The operator said stop: restart must not resurrect it."""
        scheduler, _ = make_scheduler(tmp_path)
        record = scheduler.submit(spec())
        scheduler.registry.update(
            record.job_id,
            status="cancelled",
            run_id="r-cancelled",
            error="cancelled by request",
        )
        fresh = JobScheduler(
            SessionRegistry(tmp_path),
            TenantManager(tmp_path),
            pool_workers=1,
            auto_resume=True,
            auto_resume_backoff=0.01,
        )
        fresh.start()
        try:
            time.sleep(0.5)
            assert all(
                job.resume_of is None for job in fresh.registry.jobs()
            )
        finally:
            fresh.stop()
