"""Durable-state tests: WAL intents, idempotent submits, exact refunds.

The crash-anywhere contract at the registry level: a transition is
either durable-and-acknowledged or it never happened — a torn manifest
repairs from the intent, a stale intent replays idempotently, a
replayed submit or cancel changes nothing twice.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.faults import (
    FaultPlan,
    FaultSpec,
    install_service_faults,
)
from repro.service.jobs import (
    JobRecord,
    JobSpec,
    JobStateError,
    ServiceSaturatedError,
)
from repro.service.registry import SessionRegistry
from repro.service.scheduler import JobScheduler
from repro.service.tenants import TenantManager, TenantQuota


def spec(tenant: str = "alpha", **overrides) -> JobSpec:
    fields = dict(
        tenant=tenant,
        profiles=("D1",),
        strategies=("sequential",),
        budget=40,
    )
    fields.update(overrides)
    return JobSpec(**fields)


def make_scheduler(tmp_path, **kwargs) -> JobScheduler:
    registry = SessionRegistry(tmp_path)
    tenants = TenantManager(
        tmp_path, default_quota=kwargs.pop("quota", None)
    )
    return JobScheduler(registry, tenants, pool_workers=1, **kwargs)


@pytest.fixture(autouse=True)
def _clear_faults():
    yield
    install_service_faults(None)


class TestWriteAheadIntents:
    def test_pending_intent_replays_over_stale_manifest(self, tmp_path):
        """Intent written, manifest not: recovery applies the intent."""
        registry = SessionRegistry(tmp_path)
        record = registry.create(spec())
        # Simulate dying between intent write and manifest write: put a
        # newer state in the WAL only.
        record.status = "cancelled"
        record.error = "cancelled while queued"
        registry._intent_path(record.job_id).write_text(
            json.dumps(record.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )

        fresh = SessionRegistry(tmp_path)
        fresh.recover()
        assert fresh.last_recovery["intents_replayed"] == 1
        assert fresh.get(record.job_id).status == "cancelled"
        assert not registry._intent_path(record.job_id).exists()

    def test_torn_manifest_repairs_from_intent(self, tmp_path):
        """A half-written manifest is rebuilt byte-exactly from the WAL."""
        registry = SessionRegistry(tmp_path)
        record = registry.create(spec())
        manifest = registry._manifest_path(record.job_id)
        good = manifest.read_text(encoding="utf-8")
        registry._intent_path(record.job_id).write_text(
            good, encoding="utf-8"
        )
        manifest.write_text(good[: len(good) // 3], encoding="utf-8")

        fresh = SessionRegistry(tmp_path)
        fresh.recover()
        assert manifest.read_text(encoding="utf-8") == good
        assert fresh.get(record.job_id).status == "queued"

    def test_torn_intent_is_discarded(self, tmp_path):
        """An intent torn mid-write was never durable: dropped cleanly."""
        registry = SessionRegistry(tmp_path)
        record = registry.create(spec())
        registry._intent_path(record.job_id).write_text(
            '{"job_id": "job-trunc', encoding="utf-8"
        )
        fresh = SessionRegistry(tmp_path)
        fresh.recover()
        assert fresh.last_recovery["intents_replayed"] == 0
        assert fresh.get(record.job_id).status == "queued"
        assert not registry._intent_path(record.job_id).exists()

    def test_injected_torn_manifest_write_recovers(self, tmp_path):
        """The torn_manifest fault tears real bytes; recovery repairs."""
        install_service_faults(
            FaultPlan(
                faults=(
                    FaultSpec(
                        kind="torn_manifest", site="registry.manifest.pre"
                    ),
                ),
                ledger_dir=str(tmp_path / "ledger"),
            )
        )
        registry = SessionRegistry(tmp_path)
        from repro.errors import JournalWriteError

        with pytest.raises(JournalWriteError):
            registry.create(spec())
        install_service_faults(None)
        # The manifest on disk is torn; the intent holds the record.
        fresh = SessionRegistry(tmp_path)
        fresh.recover()
        assert fresh.last_recovery["intents_replayed"] == 1
        (record,) = fresh.jobs()
        assert record.status == "queued"
        # The tenant's quota charge survived the crash exactly once.
        assert fresh.packets_committed("alpha") == record.spec.packets_requested


class TestIdempotentSubmit:
    def test_same_key_returns_original_without_new_charge(self, tmp_path):
        scheduler = make_scheduler(
            tmp_path, quota=TenantQuota(max_active_jobs=5, packet_budget=100)
        )
        first, created = scheduler.submit_idempotent(spec(budget=60), "k-1")
        assert created
        replay, replayed_created = scheduler.submit_idempotent(
            spec(budget=60), "k-1"
        )
        assert not replayed_created
        assert replay.job_id == first.job_id
        # One charge: 60 of 100 committed, a 40-packet job still fits.
        assert scheduler.registry.packets_committed("alpha") == 60
        scheduler.submit_idempotent(spec(budget=40), "k-2")

    def test_concurrent_same_key_admits_exactly_one_job(self, tmp_path):
        scheduler = make_scheduler(tmp_path)
        results: list[tuple[JobRecord, bool]] = []
        barrier = threading.Barrier(8)

        def submit() -> None:
            barrier.wait()
            results.append(scheduler.submit_idempotent(spec(), "race-key"))

        threads = [threading.Thread(target=submit) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len({record.job_id for record, _ in results}) == 1
        assert sum(1 for _, created in results if created) == 1
        assert len(scheduler.registry.jobs()) == 1

    def test_key_survives_restart(self, tmp_path):
        """The key rides in the manifest: replay works on a new process."""
        scheduler = make_scheduler(tmp_path)
        first, _ = scheduler.submit_idempotent(spec(), "persistent-key")

        fresh = make_scheduler(tmp_path)
        for record in fresh.registry.recover():
            pass
        replay, created = fresh.submit_idempotent(spec(), "persistent-key")
        assert not created
        assert replay.job_id == first.job_id

    def test_keys_are_scoped_per_tenant(self, tmp_path):
        scheduler = make_scheduler(tmp_path)
        alpha, _ = scheduler.submit_idempotent(spec("alpha"), "shared")
        beta, created = scheduler.submit_idempotent(spec("beta"), "shared")
        assert created
        assert beta.job_id != alpha.job_id


class TestQuotaRefund:
    def test_cancel_of_queued_job_refunds_exactly_once(self, tmp_path):
        scheduler = make_scheduler(
            tmp_path, quota=TenantQuota(max_active_jobs=5, packet_budget=100)
        )
        record = scheduler.submit(spec(budget=100))
        assert scheduler.registry.packets_committed("alpha") == 100
        cancelled = scheduler.cancel(record.job_id, "alpha")
        assert cancelled.quota_refunded
        assert scheduler.registry.packets_committed("alpha") == 0
        # The replayed cancel is a state error, not a second refund.
        with pytest.raises(JobStateError):
            scheduler.cancel(record.job_id, "alpha")
        assert scheduler.registry.packets_committed("alpha") == 0
        scheduler.submit(spec(budget=100))  # the budget is fully back

    def test_refund_survives_restart(self, tmp_path):
        """quota_refunded rides the manifest: accounting rebuilds right."""
        scheduler = make_scheduler(
            tmp_path, quota=TenantQuota(max_active_jobs=5, packet_budget=100)
        )
        record = scheduler.submit(spec(budget=100))
        scheduler.cancel(record.job_id, "alpha")

        fresh = make_scheduler(
            tmp_path, quota=TenantQuota(max_active_jobs=5, packet_budget=100)
        )
        for _ in fresh.registry.recover():
            pass
        assert fresh.registry.packets_committed("alpha") == 0
        with pytest.raises(JobStateError):
            fresh.cancel(record.job_id, "alpha")  # replay after restart
        fresh.submit(spec(budget=100))

    def test_concurrent_cancels_refund_once(self, tmp_path):
        """Regression: N racing cancels of one queued job, one refund."""
        scheduler = make_scheduler(
            tmp_path, quota=TenantQuota(max_active_jobs=5, packet_budget=100)
        )
        record = scheduler.submit(spec(budget=100))
        outcomes: list[str] = []
        barrier = threading.Barrier(6)

        def cancel() -> None:
            barrier.wait()
            try:
                scheduler.cancel(record.job_id, "alpha")
                outcomes.append("cancelled")
            except JobStateError:
                outcomes.append("already")

        threads = [threading.Thread(target=cancel) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert outcomes.count("cancelled") == 1
        assert scheduler.registry.packets_committed("alpha") == 0


class TestBoundedQueue:
    def test_full_queue_rejects_with_saturation(self, tmp_path):
        scheduler = make_scheduler(
            tmp_path,
            quota=TenantQuota(max_active_jobs=50),
            queue_depth=2,
        )
        admitted, _ = scheduler.submit_idempotent(spec(), "first")
        scheduler.submit(spec())
        with pytest.raises(ServiceSaturatedError) as excinfo:
            scheduler.submit(spec())
        assert excinfo.value.retry_after >= 1.0
        # A replay of an already-admitted key answers even when full:
        # the job exists, nothing new is being asked for.
        replay, created = scheduler.submit_idempotent(spec(), "first")
        assert not created
        assert replay.job_id == admitted.job_id

    def test_draining_rejects_new_submissions(self, tmp_path):
        scheduler = make_scheduler(tmp_path)
        scheduler.begin_drain()
        with pytest.raises(ServiceSaturatedError):
            scheduler.submit(spec())
