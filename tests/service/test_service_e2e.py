"""End-to-end acceptance: two tenants on one live control plane.

The tentpole contract: jobs submitted over HTTP onto the shared warm
pool produce merged fleet reports byte-identical to the same specs run
directly through :class:`FleetOrchestrator`; cancel-then-resume over
the API completes byte-identically; and one tenant can never read
another's jobs, findings or corpus.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.core.config import FuzzConfig
from repro.core.fleet import FleetOrchestrator
from repro.core.runtime import CHECKPOINTS_DIRNAME
from repro.service import scheduler
from repro.service import (
    ControlPlaneThread,
    ServiceConfig,
    ServiceClient,
    ServiceError,
)
from repro.testbed.profiles import PROFILES_BY_ID

POOL_WORKERS = 2

ALPHA_SPEC = {
    "profiles": ["D1", "D2"],
    "strategies": ["sequential", "targeted"],
    "targets": ["l2cap"],
    "budget": 250,
    "seed": 11,
}
BETA_SPEC = {
    "profiles": ["D3"],
    "strategies": ["sequential"],
    "targets": ["l2cap", "rfcomm"],
    "budget": 250,
    "seed": 23,
}


def direct_report_json(spec: dict) -> str:
    """The same spec run straight through the orchestrator."""
    orchestrator = FleetOrchestrator(
        profiles=[PROFILES_BY_ID[d] for d in spec["profiles"]],
        strategies=list(spec["strategies"]),
        targets=list(spec["targets"]),
        fleet_seed=spec["seed"],
        workers=POOL_WORKERS,
        base_config=FuzzConfig(max_packets=spec["budget"]),
    )
    with orchestrator:
        return orchestrator.run().to_json()


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    config = ServiceConfig(
        data_dir=tmp_path_factory.mktemp("service"),
        port=0,
        pool_workers=POOL_WORKERS,
    )
    with ControlPlaneThread(config) as live:
        yield live


@pytest.fixture()
def alpha(server):
    return ServiceClient(server.base_url, tenant="alpha")


@pytest.fixture()
def beta(server):
    return ServiceClient(server.base_url, tenant="beta")


class TestOverlappingTenants:
    def test_reports_byte_identical_to_direct_runs(self, alpha, beta):
        """Two tenants' overlapping jobs share one warm pool; each
        merged report is byte-identical to a direct orchestrator run."""
        job_a = alpha.submit(ALPHA_SPEC)
        job_b = beta.submit(BETA_SPEC)

        final_a = alpha.wait(job_a["job_id"], timeout=300)
        final_b = beta.wait(job_b["job_id"], timeout=300)
        assert final_a["status"] == "finished", final_a["error"]
        assert final_b["status"] == "finished", final_b["error"]

        assert alpha.report_text(job_a["job_id"]) == direct_report_json(
            ALPHA_SPEC
        )
        assert beta.report_text(job_b["job_id"]) == direct_report_json(
            BETA_SPEC
        )

    def test_status_events_and_metrics_served(self, alpha):
        record = alpha.submit({"profiles": ["D1"], "budget": 60, "seed": 3})
        final = alpha.wait(record["job_id"], timeout=120)
        assert final["status"] == "finished"

        status = alpha.status(record["job_id"])
        assert status["status"] == "finished"
        assert status["finished_campaigns"] == status["total_campaigns"] == 1
        assert status["job"]["job_id"] == record["job_id"]

        events = list(alpha.events(record["job_id"]))
        kinds = [event["event"] for event in events]
        assert "run_start" in kinds and "run_end" in kinds

        metrics = alpha.run_metrics(record["job_id"])
        assert metrics["counters"] or metrics["gauges"]
        prom = alpha.run_metrics_prometheus(record["job_id"])
        assert "# TYPE" in prom

        service_prom = alpha.service_metrics()
        assert "service_jobs_finished_total" in service_prom
        runs = alpha.runs()
        assert final["run_id"] in {row["run_id"] for row in runs}


class TestCancelResume:
    def test_cancel_then_resume_is_byte_identical(self, alpha, monkeypatch):
        spec = {
            "profiles": ["D1", "D2", "D3"],
            "strategies": ["sequential", "targeted"],
            "budget": 1200,
            "seed": 5,
            "batch": 1,
        }
        # The control plane runs in this process, so the test holds the
        # job's dispatch loop: the first abort check that finds a
        # checkpoint on disk waits until the cancel has been sent. The
        # cancel then lands after one shard finished and before the
        # next is dispatched, whatever the machine's speed.
        reached, release = threading.Event(), threading.Event()

        class HeldOrchestrator(FleetOrchestrator):
            def __init__(self, *args, abort_check, **kwargs):
                def held_abort_check() -> bool:
                    if not reached.is_set() and any(
                        (self.run_dir / CHECKPOINTS_DIRNAME).glob("*.bin")
                    ):
                        reached.set()
                        release.wait(timeout=60)
                    return abort_check()

                super().__init__(
                    *args, abort_check=held_abort_check, **kwargs
                )

        monkeypatch.setattr(scheduler, "FleetOrchestrator", HeldOrchestrator)
        record = alpha.submit(spec)
        job_id = record["job_id"]
        assert reached.wait(timeout=120), "no shard finished"
        try:
            alpha.cancel(job_id)
        finally:
            release.set()
        final = alpha.wait(job_id, timeout=120)
        assert final["status"] == "cancelled"
        # Pending shards were dropped: the run stopped short.
        assert alpha.status(job_id)["finished_campaigns"] < 6

        with pytest.raises(ServiceError) as excinfo:
            alpha.report(job_id)
        assert excinfo.value.status == 409

        resumed = alpha.resume(job_id)
        assert resumed["resume_of"] == job_id
        assert resumed["run_id"] == final["run_id"]
        done = alpha.wait(resumed["job_id"], timeout=300)
        assert done["status"] == "finished", done["error"]
        assert alpha.report_text(resumed["job_id"]) == direct_report_json(
            {
                "profiles": spec["profiles"],
                "strategies": spec["strategies"],
                "targets": ["l2cap"],
                "budget": spec["budget"],
                "seed": spec["seed"],
            }
        )

    def test_resume_of_finished_job_is_409(self, alpha):
        record = alpha.submit({"profiles": ["D1"], "budget": 40})
        alpha.wait(record["job_id"], timeout=120)
        with pytest.raises(ServiceError) as excinfo:
            alpha.resume(record["job_id"])
        assert excinfo.value.status == 409


class TestTenantIsolation:
    def test_foreign_jobs_are_invisible(self, alpha, beta):
        record = alpha.submit({"profiles": ["D1"], "budget": 40})
        alpha.wait(record["job_id"], timeout=120)
        job_id = record["job_id"]

        assert job_id not in {job["job_id"] for job in beta.jobs()}
        for call in (
            lambda: beta.job(job_id),
            lambda: beta.report(job_id),
            lambda: beta.status(job_id),
            lambda: beta.cancel(job_id),
            lambda: beta.resume(job_id),
            lambda: list(beta.events(job_id)),
        ):
            with pytest.raises(ServiceError) as excinfo:
                call()
            assert excinfo.value.status == 404

    def test_foreign_tenant_resources_are_404(self, server, alpha):
        alpha_corpus = alpha.corpus()
        assert alpha_corpus["backend"] == "sqlite"

        mallory = ServiceClient(server.base_url, tenant="mallory")
        for path in (
            "/v1/tenants/alpha/runs",
            "/v1/tenants/alpha/findings",
            "/v1/tenants/alpha/corpus",
        ):
            status, body, _ = mallory._request("GET", path)
            assert status == 404, (path, body)

    def test_missing_tenant_header_is_400(self, server):
        anonymous = ServiceClient(server.base_url, tenant=None)
        with pytest.raises(ServiceError) as excinfo:
            anonymous.jobs()
        assert excinfo.value.status == 400


class TestQuotasOverHttp:
    def test_quota_exceeded_is_429(self, tmp_path):
        config = ServiceConfig(
            data_dir=tmp_path,
            port=0,
            pool_workers=1,
            max_active_jobs=1,
            packet_budget=10_000,
        )
        with ControlPlaneThread(config) as live:
            client = ServiceClient(live.base_url, tenant="alpha")
            first = client.submit(
                {"profiles": ["D1", "D2"], "budget": 900, "batch": 1}
            )
            with pytest.raises(ServiceError) as excinfo:
                client.submit({"profiles": ["D1"], "budget": 40})
            assert excinfo.value.status == 429
            client.wait(first["job_id"], timeout=240)
            # Slot freed: admission works again, budget still counted.
            with pytest.raises(ServiceError) as excinfo:
                client.submit({"profiles": ["D1"], "budget": 9000})
            assert excinfo.value.status == 429
            second = client.submit({"profiles": ["D1"], "budget": 40})
            client.wait(second["job_id"], timeout=120)

    def test_bad_spec_is_400_unknown_route_404(self, tmp_path):
        config = ServiceConfig(data_dir=tmp_path, port=0, pool_workers=1)
        with ControlPlaneThread(config) as live:
            client = ServiceClient(live.base_url, tenant="alpha")
            with pytest.raises(ServiceError) as excinfo:
                client.submit({"profiles": ["D99"]})
            assert excinfo.value.status == 400
            status, _, _ = client._request("GET", "/v1/nope")
            assert status == 404
            status, _, _ = client._request("DELETE", "/v1/jobs")
            assert status == 405
            health = client.health()
            assert health["status"] == "ok"
