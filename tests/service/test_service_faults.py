"""Service-level fault injection: plans, typed IO failures, clean aborts.

The ENOSPC contract: a failed journal or manifest write surfaces as a
typed :class:`JournalWriteError`, the affected job lands
``aborted(resumable)`` with the cause as its failure reason — never a
raw traceback — and an unacknowledged admission holds no quota.
"""

from __future__ import annotations

import errno
import pickle

import pytest

from repro.errors import JournalWriteError
from repro.faults import (
    SERVICE_FAULT_SITES,
    FaultPlan,
    FaultSpec,
    WorkerCrashError,
    install_service_faults,
    service_fault,
)
from repro.service.jobs import JobSpec
from repro.service.registry import SessionRegistry
from repro.service.scheduler import JobScheduler
from repro.service.tenants import TenantManager
from repro.telemetry.journal import JournalWriter


def spec(tenant: str = "alpha", **overrides) -> JobSpec:
    fields = dict(
        tenant=tenant,
        profiles=("D1",),
        strategies=("sequential",),
        budget=40,
    )
    fields.update(overrides)
    return JobSpec(**fields)


def plan(tmp_path, *faults: FaultSpec) -> FaultPlan:
    return FaultPlan(
        faults=tuple(faults), ledger_dir=str(tmp_path / "fault-ledger")
    )


@pytest.fixture(autouse=True)
def _clear_faults():
    yield
    install_service_faults(None)


class TestServiceFaults:
    def test_json_roundtrip(self, tmp_path):
        original = plan(
            tmp_path,
            FaultSpec(kind="kill", site="registry.manifest.mid"),
            FaultSpec(kind="journal_io", site="journal.emit", times=3),
        )
        assert FaultPlan.from_json(original.to_json()) == original

    def test_unknown_kind_and_site_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(kind="meteor", site="journal.emit")
        with pytest.raises(ValueError):
            FaultSpec(kind="kill", site="nowhere")
        with pytest.raises(ValueError):
            FaultSpec(kind="kill", site="journal.emit", times=0)

    def test_occurrences_bounded_across_plan_instances(self, tmp_path):
        """The ledger, not the object, counts: restarts share the cap."""
        first = plan(
            tmp_path,
            FaultSpec(
                kind="registry_io", site="registry.intent", times=2
            ),
        )
        with pytest.raises(OSError):
            first.fire("registry.intent")
        # A "restarted process": same ledger dir, fresh plan object.
        second = FaultPlan.from_json(first.to_json())
        with pytest.raises(OSError):
            second.fire("registry.intent")
        assert second.fire("registry.intent") == []  # exhausted

    def test_registry_io_raises_enospc(self, tmp_path):
        armed = plan(
            tmp_path,
            FaultSpec(kind="registry_io", site="registry.intent"),
        )
        with pytest.raises(OSError) as excinfo:
            armed.fire("registry.intent")
        assert excinfo.value.errno == errno.ENOSPC

    def test_sites_without_faults_are_no_ops(self, tmp_path):
        armed = plan(
            tmp_path,
            FaultSpec(kind="registry_io", site="registry.intent"),
        )
        for site in SERVICE_FAULT_SITES:
            if site != "registry.intent":
                assert armed.fire(site) == []

    def test_hook_is_inert_without_installed_plan(self):
        for site in SERVICE_FAULT_SITES:
            assert service_fault(site) == ()


class TestMergedFaultPlan:
    """Worker and service faults share one plan, one spec and one ledger."""

    def test_mixed_plan_roundtrips_through_json_and_pickle(self, tmp_path):
        mixed = plan(
            tmp_path,
            FaultSpec(kind="crash", site="shard.start", spec_index=3),
            FaultSpec(kind="registry_io", site="registry.intent"),
        )
        assert FaultPlan.from_json(mixed.to_json()) == mixed
        assert pickle.loads(pickle.dumps(mixed)) == mixed

    def test_each_fault_fires_only_at_its_own_site(self, tmp_path):
        mixed = plan(
            tmp_path,
            FaultSpec(kind="crash", site="shard.start", spec_index=3),
            FaultSpec(kind="registry_io", site="registry.intent"),
        )
        for site in (*SERVICE_FAULT_SITES, "shard.summary", "shard.writeback"):
            if site != "registry.intent":
                assert mixed.fire(site, {3}) == []
        # A shard without campaign 3 does not arm the crash.
        assert mixed.fire("shard.start", {0, 1, 2}) == []
        with pytest.raises(WorkerCrashError, match="campaign 3"):
            mixed.fire("shard.start", {2, 3})
        with pytest.raises(OSError) as excinfo:
            mixed.fire("registry.intent", {3})
        assert excinfo.value.errno == errno.ENOSPC
        # Both occurrences are spent in the shared ledger.
        assert mixed.fire("shard.start", {3}) == []
        assert mixed.fire("registry.intent") == []

    def test_corrupt_is_returned_to_the_caller(self, tmp_path):
        spec = FaultSpec(kind="corrupt", site="shard.summary", spec_index=1)
        armed = plan(tmp_path, spec)
        assert armed.fire("shard.summary", {0, 1}) == [spec]
        assert armed.fire("shard.summary", {0, 1}) == []

    @pytest.mark.parametrize(
        "kind, site, spec_index",
        [
            ("crash", "registry.intent", 0),  # worker kind, service site
            ("corrupt", "shard.start", 0),  # worker kind, wrong shard site
            ("kill", "shard.start", None),  # service kind, shard site
            ("crash", "shard.start", None),  # worker kind needs a campaign
            ("kill", "journal.emit", 0),  # service kind takes none
        ],
    )
    def test_invalid_kind_site_pairing_rejected(self, kind, site, spec_index):
        with pytest.raises(ValueError):
            FaultSpec(kind=kind, site=site, spec_index=spec_index)


class TestTypedJournalFailures:
    def test_journal_emit_raises_typed_error(self, tmp_path):
        install_service_faults(
            plan(
                tmp_path,
                FaultSpec(kind="journal_io", site="journal.emit"),
            )
        )
        writer = JournalWriter(
            tmp_path / "run" / "events.jsonl", run_id="r1", worker="t"
        )
        with pytest.raises(JournalWriteError) as excinfo:
            writer.emit("run_start")
        assert excinfo.value.errno == errno.ENOSPC
        # Exhausted after one occurrence: the journal works again.
        writer.emit("run_start")
        writer.close()

    def test_submit_failure_holds_no_quota(self, tmp_path):
        """ENOSPC on the admission write: error out, charge nothing."""
        install_service_faults(
            plan(
                tmp_path,
                FaultSpec(kind="registry_io", site="registry.intent"),
            )
        )
        registry = SessionRegistry(tmp_path)
        scheduler = JobScheduler(
            registry, TenantManager(tmp_path), pool_workers=1
        )
        with pytest.raises(JournalWriteError):
            scheduler.submit(spec(budget=100))
        assert registry.jobs() == []
        assert registry.packets_committed("alpha") == 0
        # The disk "recovered" (fault exhausted): the retry is admitted.
        scheduler.submit(spec(budget=100))
        assert registry.packets_committed("alpha") == 100

    def test_journal_enospc_aborts_job_with_clean_reason(self, tmp_path):
        """A job whose run journal hits ENOSPC: aborted(resumable),
        failure reason names the write, no traceback leaks."""
        install_service_faults(
            plan(
                tmp_path,
                FaultSpec(kind="journal_io", site="journal.emit"),
            )
        )
        registry = SessionRegistry(tmp_path)
        scheduler = JobScheduler(
            registry, TenantManager(tmp_path), pool_workers=1
        )
        record = scheduler.submit(spec(budget=20))
        scheduler.start()
        try:
            final = scheduler.wait(record.job_id, timeout=120)
        finally:
            scheduler.stop()
        assert final.status == "aborted"
        assert final.error is not None
        assert "durability write failed" in final.error
        assert "journal write failed" in final.error
        assert "Traceback" not in final.error
        assert final.resumable  # run_id was published before dispatch

        # And the resume — fault exhausted — finishes the job.
        fresh = JobScheduler(registry, TenantManager(tmp_path), pool_workers=1)
        resumed = fresh.resume(record.job_id, "alpha")
        fresh.start()
        try:
            done = fresh.wait(resumed.job_id, timeout=120)
        finally:
            fresh.stop()
        assert done.status == "finished", done.error
