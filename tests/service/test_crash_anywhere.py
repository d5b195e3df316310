"""Crash-anywhere acceptance: SIGKILL a live server at seeded points.

The tentpole contract. A fault plan shipped via ``REPRO_SERVICE_FAULTS``
SIGKILLs the server subprocess at one instrumented point — mid-intent,
mid-manifest-write (both sides of the rename), after the quota charge
but before the HTTP ack, at the top of the dispatcher loop, at the
first journal append. The harness then restarts the service clean with
``--auto-resume`` and replays the submit under its ``Idempotency-Key``.

At *every* point the outcome must converge to exactly one admitted job
whose chain finishes with a merged report byte-identical to a direct
:class:`FleetOrchestrator` run, with the tenant's packet-budget charge
exactly one job's worth — zero lost jobs, zero duplicates, zero quota
drift.
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.config import FuzzConfig
from repro.core.fleet import FleetOrchestrator
from repro.faults import (
    SERVICE_FAULT_SITES,
    SERVICE_FAULTS_ENV,
    FaultPlan,
    FaultSpec,
)
from repro.service import ServiceClient
from repro.testbed.profiles import PROFILES_BY_ID

#: The service runs one in-process worker so a SIGKILL takes the whole
#: stack — scheduler, runtime and workers — down as one crash domain.
POOL_WORKERS = 1

SPEC = {
    "profiles": ["D1", "D2"],
    "strategies": ["sequential"],
    "targets": ["l2cap"],
    "budget": 300,
    "seed": 29,
}

IDEMPOTENCY_KEY = "crash-anywhere-submit"


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def start_server(
    data_dir: Path, port: int, *extra_args: str, faults: str | None = None
) -> subprocess.Popen:
    src = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (src, env.get("PYTHONPATH")) if part
    )
    if faults is not None:
        env[SERVICE_FAULTS_ENV] = faults
    else:
        env.pop(SERVICE_FAULTS_ENV, None)
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--data-dir",
            str(data_dir),
            "--port",
            str(port),
            "--workers",
            str(POOL_WORKERS),
            *extra_args,
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
    )


def wait_healthy_or_dead(
    server: subprocess.Popen, client: ServiceClient, timeout: float = 30.0
) -> bool:
    """True once the server answers /healthz; False if it died first."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if server.poll() is not None:
            return False
        try:
            client.health()
            return True
        except OSError:
            time.sleep(0.05)
    raise TimeoutError("server neither healthy nor dead")


@pytest.fixture(scope="module")
def direct_report() -> str:
    """The byte-exact report the surviving chain must converge to."""
    orchestrator = FleetOrchestrator(
        profiles=[PROFILES_BY_ID[d] for d in SPEC["profiles"]],
        strategies=list(SPEC["strategies"]),
        targets=list(SPEC["targets"]),
        fleet_seed=SPEC["seed"],
        workers=POOL_WORKERS,
        base_config=FuzzConfig(max_packets=SPEC["budget"]),
    )
    with orchestrator:
        return orchestrator.run().to_json()


@pytest.mark.parametrize("site", SERVICE_FAULT_SITES)
def test_sigkill_at_site_converges_byte_identically(
    tmp_path, site, direct_report
):
    data_dir = tmp_path / "service"
    plan = FaultPlan(
        faults=(FaultSpec(kind="kill", site=site),),
        ledger_dir=str(tmp_path / "fault-ledger"),
    )

    # -- phase 1: a server armed to die at the site, mid-job ------------
    port = free_port()
    server = start_server(data_dir, port, faults=plan.to_json())
    client = ServiceClient(
        f"http://127.0.0.1:{port}", tenant="alpha", timeout=10.0
    )
    try:
        if wait_healthy_or_dead(server, client):
            try:
                client.submit(SPEC, idempotency_key=IDEMPOTENCY_KEY)
            except OSError:
                pass  # the kill landed mid-request; that is the point
        server.wait(timeout=60)  # the armed site always fires
    finally:
        if server.poll() is None:
            server.kill()
            server.wait(timeout=30)
            pytest.fail(f"kill at {site!r} never fired")

    # -- phase 2: restart clean, replay the submit, converge ------------
    port = free_port()
    server = start_server(data_dir, port, "--auto-resume")
    client = ServiceClient(
        f"http://127.0.0.1:{port}", tenant="alpha", timeout=10.0
    )
    try:
        assert wait_healthy_or_dead(server, client)
        replayed = client.submit(SPEC, idempotency_key=IDEMPOTENCY_KEY)
        root_id = replayed["job_id"]

        # Converge: the chain rooted at the admitted job must finish.
        deadline = time.monotonic() + 240
        finished = None
        while time.monotonic() < deadline:
            jobs = {record["job_id"]: record for record in client.jobs()}
            chain = {root_id}
            grew = True
            while grew:
                grew = False
                for record in jobs.values():
                    if (
                        record["resume_of"] in chain
                        and record["job_id"] not in chain
                    ):
                        chain.add(record["job_id"])
                        grew = True
            finished = next(
                (
                    jobs[job_id]
                    for job_id in chain
                    if jobs[job_id]["status"] == "finished"
                ),
                None,
            )
            if finished is not None:
                break
            if all(
                jobs[job_id]["status"] in ("cancelled", "aborted")
                for job_id in chain
            ) and not any(jobs[job_id]["status"] == "queued" for job_id in chain):
                # Give auto-resume a beat to extend the chain.
                time.sleep(0.3)
            else:
                time.sleep(0.1)
        assert finished is not None, (
            f"chain never converged after kill at {site!r}: "
            f"{[(j['job_id'], j['status'], j['error']) for j in jobs.values()]}"
        )

        # Byte-identical to the direct orchestrator run.
        assert client.report_text(finished["job_id"]) == direct_report

        # Zero lost or duplicated jobs: exactly one non-resume admission
        # for the key, and the quota charge is exactly one job's worth.
        all_jobs = client.jobs()
        roots = [job for job in all_jobs if job["resume_of"] is None]
        assert len(roots) == 1
        assert roots[0]["idempotency_key"] == IDEMPOTENCY_KEY
        expected_packets = (
            len(SPEC["profiles"]) * SPEC["budget"]
        )  # 1 strategy x 1 target
        committed = sum(
            job["spec"]["budget"]
            * len(job["spec"]["profiles"])
            * len(job["spec"]["strategies"])
            * len(job["spec"]["targets"])
            for job in all_jobs
            if job["resume_of"] is None and not job["quota_refunded"]
        )
        assert committed == expected_packets
    finally:
        try:
            client.shutdown()
            server.wait(timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            server.kill()
            server.wait(timeout=30)


def test_fault_ledger_survives_restart(tmp_path):
    """A restarted server sharing the ledger does not re-fire the kill:
    the same armed plan in the environment is already exhausted."""
    data_dir = tmp_path / "service"
    plan = FaultPlan(
        faults=(
            FaultSpec(kind="kill", site="scheduler.quota.charge"),
        ),
        ledger_dir=str(tmp_path / "fault-ledger"),
    )
    port = free_port()
    server = start_server(data_dir, port, faults=plan.to_json())
    client = ServiceClient(
        f"http://127.0.0.1:{port}", tenant="alpha", timeout=10.0
    )
    try:
        assert wait_healthy_or_dead(server, client)
        try:
            client.submit(SPEC, idempotency_key="ledger-key")
        except OSError:
            pass
        server.wait(timeout=60)
    finally:
        if server.poll() is None:
            server.kill()
            server.wait(timeout=30)

    # Restart with the SAME armed environment: the marker ledger has the
    # occurrence claimed, so the submit replays and completes.
    port = free_port()
    server = start_server(
        data_dir, port, "--auto-resume", faults=plan.to_json()
    )
    client = ServiceClient(
        f"http://127.0.0.1:{port}", tenant="alpha", timeout=10.0
    )
    try:
        assert wait_healthy_or_dead(server, client)
        replayed = client.submit(SPEC, idempotency_key="ledger-key")
        final = client.wait(replayed["job_id"], timeout=240)
        assert final["status"] == "finished", final["error"]
    finally:
        try:
            client.shutdown()
            server.wait(timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            server.kill()
            server.wait(timeout=30)
