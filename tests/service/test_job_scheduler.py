"""Scheduler tests: quotas under concurrency, isolation, cancel/resume.

The satellite contract: N tenants submitting M jobs each onto one
2-worker pool must see quotas enforced *exactly* (no admission race),
corpus writes must never cross tenant namespaces, and a cancelled job
must leave checkpoints a resume can finish from.
"""

from __future__ import annotations

import threading

import pytest

from repro.service.jobs import (
    JobSpec,
    JobStateError,
    QuotaExceededError,
)
from repro.service.registry import SessionRegistry
from repro.service.scheduler import JobScheduler
from repro.service.tenants import TenantManager, TenantQuota


def make_scheduler(
    tmp_path,
    pool_workers: int = 2,
    quota: TenantQuota | None = None,
) -> JobScheduler:
    registry = SessionRegistry(tmp_path)
    tenants = TenantManager(tmp_path, default_quota=quota)
    return JobScheduler(registry, tenants, pool_workers=pool_workers)


def spec(tenant: str = "alpha", **overrides) -> JobSpec:
    fields = dict(
        tenant=tenant,
        profiles=("D1",),
        strategies=("sequential",),
        budget=40,
    )
    fields.update(overrides)
    return JobSpec(**fields)


class TestQuotaExactness:
    def test_concurrent_submissions_admit_exactly_the_quota(self, tmp_path):
        """3 tenants x 8 racing submits, limit 3: exactly 3 admitted each.

        The scheduler is deliberately not started — admission must be
        exact under the submit lock alone, with no help from jobs
        draining out of the queue.
        """
        scheduler = make_scheduler(
            tmp_path, quota=TenantQuota(max_active_jobs=3)
        )
        tenants = ("alpha", "beta", "gamma")
        outcomes: dict[str, list[str]] = {tenant: [] for tenant in tenants}
        barrier = threading.Barrier(len(tenants) * 8)

        def submit(tenant: str) -> None:
            barrier.wait()
            try:
                scheduler.submit(spec(tenant))
                outcomes[tenant].append("admitted")
            except QuotaExceededError:
                outcomes[tenant].append("rejected")

        threads = [
            threading.Thread(target=submit, args=(tenant,))
            for tenant in tenants
            for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for tenant in tenants:
            assert outcomes[tenant].count("admitted") == 3
            assert outcomes[tenant].count("rejected") == 5
            assert scheduler.registry.active_count(tenant) == 3

    def test_packet_budget_enforced_exactly(self, tmp_path):
        scheduler = make_scheduler(
            tmp_path,
            quota=TenantQuota(max_active_jobs=100, packet_budget=200),
        )
        scheduler.submit(spec(budget=100))  # 100 committed
        with pytest.raises(QuotaExceededError):
            scheduler.submit(spec(budget=150))  # 100 + 150 > 200
        scheduler.submit(spec(budget=100))  # exactly 200: admitted
        with pytest.raises(QuotaExceededError):
            scheduler.submit(spec(budget=1))

    def test_quotas_are_per_tenant(self, tmp_path):
        scheduler = make_scheduler(
            tmp_path, quota=TenantQuota(max_active_jobs=1)
        )
        scheduler.submit(spec("alpha"))
        with pytest.raises(QuotaExceededError):
            scheduler.submit(spec("alpha"))
        scheduler.submit(spec("beta"))  # other tenants unaffected

    def test_validation_happens_before_admission(self, tmp_path):
        scheduler = make_scheduler(tmp_path)
        from repro.service.jobs import JobValidationError

        with pytest.raises(JobValidationError):
            scheduler.submit(spec(profiles=("D99",)))
        assert scheduler.registry.jobs() == []


class TestSchedulingOrder:
    def test_fifo_within_priority_across_tenants(self, tmp_path):
        """Jobs drain priority-first, submission-order within a band."""
        scheduler = make_scheduler(
            tmp_path, quota=TenantQuota(max_active_jobs=10)
        )
        low_a = scheduler.submit(spec("alpha", priority=7))
        urgent = scheduler.submit(spec("beta", priority=1))
        low_b = scheduler.submit(spec("alpha", priority=7))

        order = []
        original = scheduler._execute

        def tracking_execute(record):
            order.append(record.job_id)
            original(record)

        scheduler._execute = tracking_execute
        scheduler.start()
        try:
            for record in (low_a, urgent, low_b):
                scheduler.wait(record.job_id, timeout=120)
        finally:
            scheduler.stop()
        assert order == [urgent.job_id, low_a.job_id, low_b.job_id]


class TestNamespaceIsolation:
    def test_corpus_writes_stay_in_the_submitting_tenants_namespace(
        self, tmp_path
    ):
        """Overlapping corpus-writing jobs never cross namespaces."""
        scheduler = make_scheduler(
            tmp_path, quota=TenantQuota(max_active_jobs=10)
        )
        jobs = []
        scheduler.start()
        try:
            for _ in range(2):
                jobs.append(
                    scheduler.submit(
                        spec(
                            "alpha",
                            profiles=("D1",),
                            budget=200,
                            use_corpus=True,
                        )
                    )
                )
                jobs.append(
                    scheduler.submit(
                        spec(
                            "beta",
                            profiles=("D2",),
                            budget=200,
                            use_corpus=True,
                        )
                    )
                )
            for record in jobs:
                final = scheduler.wait(record.job_id, timeout=240)
                assert final.status == "finished", final.error
        finally:
            scheduler.stop()

        alpha = scheduler.tenants.open_corpus("alpha")
        beta = scheduler.tenants.open_corpus("beta")
        try:
            alpha_entries = alpha.entries()
            beta_entries = beta.entries()
            assert alpha_entries, "alpha's jobs recorded no corpus entries"
            assert beta_entries, "beta's jobs recorded no corpus entries"
            assert {entry.device_id for entry in alpha_entries} == {"D1"}
            assert {entry.device_id for entry in beta_entries} == {"D2"}
            assert not (
                {entry.entry_id for entry in alpha_entries}
                & {entry.entry_id for entry in beta_entries}
            )
        finally:
            alpha.close()
            beta.close()


class TestCancelAndResume:
    def test_cancel_queued_job_is_immediate(self, tmp_path):
        scheduler = make_scheduler(tmp_path)
        record = scheduler.submit(spec())
        cancelled = scheduler.cancel(record.job_id, "alpha")
        assert cancelled.status == "cancelled"
        # Not resumable: it never started, there is no run to resume.
        with pytest.raises(JobStateError):
            scheduler.resume(record.job_id, "alpha")

    def test_cancel_terminal_job_is_a_state_error(self, tmp_path):
        scheduler = make_scheduler(tmp_path)
        record = scheduler.submit(spec(budget=20))
        scheduler.start()
        try:
            scheduler.wait(record.job_id, timeout=120)
        finally:
            scheduler.stop()
        with pytest.raises(JobStateError):
            scheduler.cancel(record.job_id, "alpha")

    def test_cancelled_running_job_leaves_resumable_checkpoints(
        self, tmp_path
    ):
        """Cancel mid-run: checkpoints on disk, resume finishes the job."""
        from repro.core.runtime import CHECKPOINTS_DIRNAME

        scheduler = make_scheduler(tmp_path)
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
            # Wait until at least one checkpoint exists, then cancel.
            import time

            run_dir = None
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                current = scheduler.registry.get(record.job_id)
                if current.run_id is not None:
                    run_dir = (
                        scheduler.tenants.runs_dir("alpha") / current.run_id
                    )
                    if list(
                        (run_dir / CHECKPOINTS_DIRNAME).glob("*.bin")
                    ):
                        break
                if not current.active:
                    break  # finished before we could cancel
                time.sleep(0.01)
            current = scheduler.registry.get(record.job_id)
            if current.status == "running":
                scheduler.cancel(record.job_id, "alpha")
            final = scheduler.wait(record.job_id, timeout=120)
            if final.status == "finished":
                pytest.skip("job finished before cancel landed")
            assert final.status == "cancelled"
            assert final.resumable
            assert list((run_dir / CHECKPOINTS_DIRNAME).glob("*.bin"))

            resumed = scheduler.resume(record.job_id, "alpha")
            assert resumed.resume_of == record.job_id
            assert resumed.run_id == final.run_id
            done = scheduler.wait(resumed.job_id, timeout=240)
            assert done.status == "finished", done.error
            assert done.campaigns == 6
        finally:
            scheduler.stop()

    def test_resume_requires_owning_tenant(self, tmp_path):
        from repro.service.jobs import UnknownJobError

        scheduler = make_scheduler(tmp_path)
        record = scheduler.submit(spec())
        scheduler.registry.update(
            record.job_id, status="aborted", run_id="r1"
        )
        with pytest.raises(UnknownJobError):
            scheduler.resume(record.job_id, "mallory")
        with pytest.raises(UnknownJobError):
            scheduler.cancel(record.job_id, "mallory")


class TestOneContinuationPerJob:
    """A job is resumed at most once: the chain never forks."""

    def _aborted(self, scheduler) -> str:
        record = scheduler.submit(spec())
        scheduler.registry.update(
            record.job_id, status="aborted", run_id="r1"
        )
        return record.job_id

    def _children(self, scheduler, job_id: str) -> list:
        return [
            record
            for record in scheduler.registry.jobs()
            if record.resume_of == job_id
        ]

    def test_second_manual_resume_names_the_existing_child(self, tmp_path):
        scheduler = make_scheduler(tmp_path)
        job_id = self._aborted(scheduler)
        child = scheduler.resume(job_id, "alpha")
        with pytest.raises(JobStateError, match=child.job_id):
            scheduler.resume(job_id, "alpha")
        assert [record.job_id for record in self._children(scheduler, job_id)] == [
            child.job_id
        ]

    def test_racing_manual_resumes_create_one_child(self, tmp_path):
        scheduler = make_scheduler(tmp_path)
        job_id = self._aborted(scheduler)
        outcomes: list[str] = []
        barrier = threading.Barrier(2)

        def resume() -> None:
            barrier.wait()
            try:
                scheduler.resume(job_id, "alpha")
                outcomes.append("resumed")
            except JobStateError:
                outcomes.append("refused")

        threads = [threading.Thread(target=resume) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sorted(outcomes) == ["refused", "resumed"]
        assert len(self._children(scheduler, job_id)) == 1

    def test_pending_auto_resume_after_manual_resume_is_dropped(
        self, tmp_path, caplog
    ):
        registry = SessionRegistry(tmp_path)
        scheduler = JobScheduler(
            registry,
            TenantManager(tmp_path),
            pool_workers=2,
            auto_resume=True,
        )
        job_id = self._aborted(scheduler)
        scheduler._queue_auto_resume(job_id)
        manual = scheduler.resume(job_id, "alpha")
        with caplog.at_level("WARNING", logger="repro.service.scheduler"):
            assert scheduler.service_auto_resume() == 0
        assert not caplog.records
        assert [record.job_id for record in self._children(scheduler, job_id)] == [
            manual.job_id
        ]


class TestRecovery:
    def test_restart_requeues_queued_and_aborts_running(self, tmp_path):
        registry = SessionRegistry(tmp_path)
        tenants = TenantManager(tmp_path)
        scheduler = JobScheduler(registry, tenants, pool_workers=1)
        queued = scheduler.submit(spec(budget=20))
        interrupted = scheduler.submit(spec(budget=20))
        registry.update(
            interrupted.job_id, status="running", run_id="r-dead"
        )

        fresh_registry = SessionRegistry(tmp_path)
        fresh = JobScheduler(
            fresh_registry, TenantManager(tmp_path), pool_workers=1
        )
        fresh.start()
        try:
            final = fresh.wait(queued.job_id, timeout=120)
            assert final.status == "finished", final.error
        finally:
            fresh.stop()
        aborted = fresh_registry.get(interrupted.job_id)
        assert aborted.status == "aborted"
        assert aborted.resumable
