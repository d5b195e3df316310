"""``service``: a live control plane driven by two closed-loop tenants.

An in-process :class:`ControlPlaneThread` in its production
configuration — write-ahead intents, the watchdog and
``auto_resume=True`` — on a two-worker pool. Two tenants each drive it
from one client thread in a closed loop (submit → completion → fetch
report). Jobs are small and drawn from a seeded mix of profiles,
strategies and targets; tenant ``beta`` sets ``use_corpus=True``, so
SQLite corpus writes sit beside plain jobs.

Here the control plane dominates: HTTP, the scheduler, registry
durability and the per-job orchestrator and telemetry set-up. Jobs
serialise on the single dispatcher, so the second tenant's jobs also
wait in the queue.

Latency is stamped without poll quantisation: a job's end is the
``finished`` epoch on its record (the server runs in this process, on
the same clock), and the client learns of completion by reading the
in-process registry every millisecond.
"""

from __future__ import annotations

import random
import threading
import time
from pathlib import Path

from common import (
    SUPERVISION_EVENTS,
    Outcome,
    WorkDir,
    median,
    set_efficiency_ratios,
    percentile,
    workload_rss_mb,
)
from yardstick import HostSpeed

WORKERS = 2
PROFILE_IDS = ("D1", "D2", "D3", "D4", "D5", "D6", "D7", "D8")
STRATEGIES = ("sequential", "targeted")
TARGETS = ("l2cap", "rfcomm", "sdp", "obex")
BUDGET = 600
TENANTS = (("alpha", False), ("beta", True))
SETUP_REPEATS = 5
JOB_TIMEOUT = 60.0
COMPLETION_POLL = 0.001
HOST_SAMPLES = 2
HOST_SAMPLE_EVERY = 1.5


def job_spec(rng: random.Random, use_corpus: bool) -> dict:
    return {
        "profiles": rng.sample(PROFILE_IDS, 2),
        "strategies": [rng.choice(STRATEGIES)],
        "targets": [rng.choice(TARGETS)],
        "budget": BUDGET,
        "seed": rng.getrandbits(32),
        "armed": False,
        "use_corpus": use_corpus,
    }


def _start(data_dir: Path):
    from repro.service import ControlPlaneThread, ServiceConfig

    return ControlPlaneThread(
        ServiceConfig(
            data_dir=data_dir,
            port=0,
            pool_workers=WORKERS,
            watchdog_interval=1.0,
            wedge_deadline=120.0,
            auto_resume=True,
        )
    ).start()


def _await(registry, job_id: str):
    """The job's record once it is terminal (None on timeout)."""
    deadline = time.monotonic() + JOB_TIMEOUT
    while time.monotonic() < deadline:
        record = registry.get(job_id)
        if not record.active:
            return record
        time.sleep(COMPLETION_POLL)
    return None


def _setup(work: Path):
    """Median of :data:`SETUP_REPEATS` control-plane starts, each until
    its first (warm-up) job finished; returns (seconds, live server)."""
    from repro.service import ServiceClient

    samples, server, host = [], None, HostSpeed()
    for attempt in range(SETUP_REPEATS):
        if server is not None:
            server.stop()
        host.sample()
        started = time.perf_counter()
        server = _start(work / f"service-{attempt}")
        client = ServiceClient(server.base_url, tenant="warmup")
        record = client.submit(job_spec(random.Random(attempt), False))
        final = _await(server.app.registry, record["job_id"])
        if final is None or final.status != "finished":
            raise RuntimeError(f"warm-up job did not finish: {final}")
        samples.append(time.perf_counter() - started)
    host.sample()
    return median(samples) / host.factor(), server


class Pauses:
    """Holds every client between two jobs while the host is sampled."""

    def __init__(self, clients: int) -> None:
        self._clients = clients
        self._idle = 0
        self._requested = False
        self._condition = threading.Condition()

    def checkpoint(self) -> None:
        """Client side, between jobs: wait out a pause if one is asked."""
        with self._condition:
            if not self._requested:
                return
            self._idle += 1
            self._condition.notify_all()
            while self._requested:
                self._condition.wait()
            self._idle -= 1

    def __enter__(self) -> "Pauses":
        with self._condition:
            self._requested = True
            if not self._condition.wait_for(
                lambda: self._idle == self._clients, timeout=JOB_TIMEOUT
            ):
                self._requested = False
                self._condition.notify_all()
                raise RuntimeError("clients did not pause within the job timeout")
        return self

    def __exit__(self, *_exc) -> None:
        with self._condition:
            self._requested = False
            self._condition.notify_all()


class Job:
    """One closed-loop operation as the client saw it."""

    def __init__(self, tenant: str, spec: dict) -> None:
        self.tenant = tenant
        self.spec = spec
        self.job_id: str | None = None
        self.submitted = 0.0
        self.ack_s = 0.0
        self.fetch_s = 0.0
        self.record = None
        self.report = ""
        self.error: str | None = None

    @property
    def latency(self) -> float:
        """Submit → report persisted; failures miss every percentile."""
        if self.error is not None:
            return float("inf")
        return self.record.finished - self.submitted


def _client_loop(server, tenant, use_corpus, seed, deadline, jobs, lock, pauses) -> None:
    from repro.service import ServiceClient

    client = ServiceClient(server.base_url, tenant=tenant)
    registry = server.app.registry
    rng = random.Random(f"service:{tenant}:{seed}")
    while True:
        pauses.checkpoint()
        if time.perf_counter() >= deadline:
            break
        job = Job(tenant, job_spec(rng, use_corpus))
        try:
            job.submitted = time.time()
            started = time.perf_counter()
            record = client.submit(job.spec)
            job.ack_s = time.perf_counter() - started
            job.job_id = record["job_id"]
            job.record = _await(registry, job.job_id)
            if job.record is None:
                job.error = "timed out"
            elif job.record.status != "finished":
                job.error = f"ended {job.record.status}: {job.record.error}"
            else:
                started = time.perf_counter()
                job.report = client.report_text(job.job_id)
                job.fetch_s = time.perf_counter() - started
        except Exception as error:  # noqa: BLE001 — a failed operation, not a crash
            job.error = f"{type(error).__name__}: {error}"
        with lock:
            jobs.append(job)


def _job_events(server, job: Job) -> list[dict]:
    from repro.telemetry import EVENTS_FILENAME, read_events

    run_dir = server.app.tenants.runs_dir(job.tenant) / job.record.run_id
    return read_events(run_dir / EVENTS_FILENAME)


def _direct_report(spec: dict) -> str:
    """The same spec straight through :class:`FleetOrchestrator`."""
    from repro.core.config import FuzzConfig
    from repro.core.fleet import FleetOrchestrator
    from repro.testbed.profiles import PROFILES_BY_ID

    with FleetOrchestrator(
        profiles=[PROFILES_BY_ID[device_id] for device_id in spec["profiles"]],
        strategies=spec["strategies"],
        fleet_seed=spec["seed"],
        workers=WORKERS,
        base_config=FuzzConfig(max_packets=spec["budget"]),
        armed=spec["armed"],
        targets=spec["targets"],
    ) as orchestrator:
        return orchestrator.run().to_json()


def _install_tracing(ledger, server) -> None:
    from repro.core.fleet import FleetOrchestrator
    from repro.core.runtime import FleetRuntime

    registry = server.app.registry
    for attr in ("create", "update", "save_report"):
        ledger.patch(registry, attr, "registry.write", kind="span")
    ledger.patch(FleetOrchestrator, "__init__", "fleet.construct", kind="span")
    ledger.patch(FleetOrchestrator, "run", "fleet.run", kind="span")
    ledger.patch(FleetOrchestrator, "close", "telemetry.close", kind="span")
    ledger.patch(FleetRuntime, "run_specs", "runtime.dispatch", kind="span")


def run(root: Path, seed: int, seconds: float, trace: bool) -> Outcome:
    from fleet_workload import campaign_rates, efficiency_totals

    outcome = Outcome()
    jobs: list[Job] = []
    sample = None
    with WorkDir(root, "service") as work:
        setup, server = _setup(work)
        try:
            ledger = None
            if trace:
                from ledger import Ledger

                ledger = Ledger()
                _install_tracing(ledger, server)
            # The host is sampled only while the service is idle — the
            # clients pause between jobs every HOST_SAMPLE_EVERY seconds:
            # a sample taken under load would also time the service's
            # own contention for the interpreter, and cancel part of any
            # change to it.
            host, pauses = HostSpeed(), Pauses(len(TENANTS))
            host.sample(HOST_SAMPLES)
            lock = threading.Lock()
            deadline = time.perf_counter() + seconds
            clients = [
                threading.Thread(
                    target=_client_loop,
                    args=(server, tenant, use_corpus, seed, deadline, jobs, lock, pauses),
                    name=f"client-{tenant}",
                    daemon=True,
                )
                for tenant, use_corpus in TENANTS
            ]
            with host.stealing():
                for thread in clients:
                    thread.start()
                while time.perf_counter() < deadline - HOST_SAMPLE_EVERY:
                    time.sleep(HOST_SAMPLE_EVERY)
                    with pauses:
                        host.sample(HOST_SAMPLES)
                for thread in clients:
                    thread.join()
            if ledger is not None:
                ledger.restore()
            rss = workload_rss_mb()
            events = []
            for job in jobs:
                outcome.attempted += 1
                if job.error is None:
                    job_events = _job_events(server, job)
                    events.extend(job_events)
                    if any(e["event"] in SUPERVISION_EVENTS for e in job_events):
                        job.error = "supervision retried or quarantined a shard"
                if job.error is not None:
                    outcome.fail(f"{job.tenant} {job.job_id}: {job.error}")
            sample = _sampled_plain_job(jobs, seed)
            if sample is None:
                outcome.fail("no finished plain job to compare with a direct run")
        finally:
            server.stop()
        if sample is not None and _direct_report(sample.spec) != sample.report:
            outcome.fail(f"{sample.job_id}: report differs from a direct fleet run")

    done = [job for job in jobs if job.error is None]
    if not trace:
        host.record(
            outcome,
            median(campaign_rates(events)),
            percentile([job.latency for job in jobs], 50),
        )
        outcome.metric("rss_mb", rss, "MB")
        outcome.metric("setup_s", setup, "s")
        return outcome

    def per_call(layer: str) -> float:
        return ledger.span_ns[layer] / 1e9 / max(1, ledger.span_calls[layer])

    writes = ledger.span_calls["registry.write"]
    exec_s = median(job.record.finished - job.record.started for job in done)
    outcome.metric("http.submit_ack_s", median(job.ack_s for job in done), "s")
    outcome.metric("http.report_fetch_s", median(job.fetch_s for job in done), "s")
    outcome.metric(
        "scheduler.queue_wait_s",
        median(job.record.started - job.record.created for job in done),
        "s",
    )
    outcome.metric("scheduler.exec_s", exec_s, "s")
    outcome.metric("fleet.run_s", per_call("fleet.run"), "s")
    outcome.metric("service.overhead_frac", 1.0 - per_call("fleet.run") / exec_s, "fraction")
    outcome.metric("fleet.construct_s", per_call("fleet.construct"), "s")
    outcome.metric("telemetry.close_s", per_call("telemetry.close"), "s")
    outcome.metric("runtime.dispatch_s", per_call("runtime.dispatch"), "s")
    outcome.metric(
        "fleet.merge_s", per_call("fleet.run") - per_call("runtime.dispatch"), "s"
    )
    outcome.metric("registry.write_s", per_call("registry.write"), "s")
    outcome.metric("registry.writes_per_job", writes / max(1, len(jobs)), "count")
    # Too few traced calls per job for a paired on/off run to resolve:
    # the overhead is the calibrated per-call cost over the busy time.
    traced_calls = sum(ledger.span_calls.values())
    outcome.metric(
        "trace.overhead_frac",
        traced_calls * (ledger.cost_in_ns + ledger.cost_out_ns) / 1e9
        / sum(job.record.finished - job.record.started for job in done),
        "fraction",
    )
    set_efficiency_ratios(outcome, *efficiency_totals(events))
    return outcome


def _sampled_plain_job(jobs, seed: int):
    plain = [job for job in jobs if job.error is None and not job.spec["use_corpus"]]
    if not plain:
        return None
    return random.Random(f"service-sample:{seed}").choice(plain)
