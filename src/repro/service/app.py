"""The control plane: configuration, routes, server lifecycle.

One :class:`ControlPlane` wires the tenant manager, session registry
and job scheduler behind an asyncio HTTP server. Identity is the
``X-Repro-Tenant`` header; every job and tenant-scoped endpoint checks
it, and a foreign job or tenant resource answers 404 — existence is
not leaked across namespaces.

Endpoints (all JSON unless noted)::

    GET  /healthz                               liveness + job counts
    GET  /metrics                               service Prometheus text
    POST /v1/jobs                               submit a job spec
    GET  /v1/jobs                               this tenant's jobs
    GET  /v1/jobs/{job_id}                      one job record
    POST /v1/jobs/{job_id}/cancel               cancel queued/running
    POST /v1/jobs/{job_id}/resume               continue from checkpoints
    GET  /v1/jobs/{job_id}/report               merged FleetReport (byte-exact)
    GET  /v1/jobs/{job_id}/status               live run_status structure
    GET  /v1/jobs/{job_id}/events[?follow=1]    journal tail (chunked NDJSON)
    GET  /v1/jobs/{job_id}/metrics              the run's metrics.json
    GET  /v1/jobs/{job_id}/metrics.prom         Prometheus exposition
    GET  /v1/tenants/{tenant}/runs              run rows (runs list --json)
    GET  /v1/tenants/{tenant}/findings          query findings (filters)
    GET  /v1/tenants/{tenant}/corpus            corpus stats + entry ids
    GET  /v1/tenants/{tenant}/corpus/{entry_id} download one entry
    POST /v1/admin/shutdown                     graceful stop

Blocking file/DB reads (journal scans, corpus queries) run in the
default executor so a slow disk never stalls the accept loop.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import json
import logging
import signal
import threading
from pathlib import Path

from repro.core.runtime import SHARD_TIMEOUT
from repro.corpus.backend import NAMESPACE_RE
from repro.corpus.entry import entry_to_dict
from repro.corpus.findings import record_to_dict
from repro.service.http import (
    HttpError,
    Request,
    Response,
    StreamingResponse,
    error_response,
    read_request,
    write_response,
)
from repro.errors import JournalWriteError
from repro.service.jobs import (
    JobRecord,
    JobSpec,
    JobStateError,
    JobValidationError,
    QuotaExceededError,
    ServiceSaturatedError,
    UnknownJobError,
)
from repro.service.registry import SessionRegistry
from repro.service.router import Router
from repro.service.scheduler import JobScheduler
from repro.service.tenants import TenantManager, TenantQuota
from repro.service.watchdog import Watchdog
from repro.telemetry import (
    EVENTS_FILENAME,
    list_runs,
    load_manifest,
    read_events,
    run_info_dict,
    run_status,
    status_to_dict,
)
from repro.telemetry.recorder import (
    METRICS_JSON_FILENAME,
    METRICS_PROM_FILENAME,
)

_log = logging.getLogger(__name__)

TENANT_HEADER = "X-Repro-Tenant"


@dataclasses.dataclass
class ServiceConfig:
    """Everything ``repro serve`` configures."""

    data_dir: str | Path
    host: str = "127.0.0.1"
    port: int = 8979
    pool_workers: int = 2
    max_active_jobs: int | None = None
    packet_budget: int | None = None
    stream_interval: float = 0.25
    #: Per-shard deadline floor in seconds (``--shard-deadline``).
    shard_timeout: float = SHARD_TIMEOUT
    #: Global bounded admission queue; a full queue answers 503 with
    #: ``Retry-After``. None removes the bound.
    max_queue_depth: int | None = 256
    #: Watchdog tick period; 0 disables the watchdog thread entirely.
    watchdog_interval: float = 1.0
    #: Abort a running job whose run directory shows no change for this
    #: many seconds (wedged worker/pool). None disables the check.
    wedge_deadline: float | None = 120.0
    #: Automatically resume ``aborted(resumable)`` jobs — on start-up
    #: and after watchdog aborts — under the capped retry policy.
    auto_resume: bool = False
    auto_resume_max_attempts: int = 3


class ControlPlane:
    """The service: routes + scheduler + asyncio server."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        data_dir = Path(config.data_dir)
        data_dir.mkdir(parents=True, exist_ok=True)
        quota_kwargs = {}
        if config.max_active_jobs is not None:
            quota_kwargs["max_active_jobs"] = config.max_active_jobs
        if config.packet_budget is not None:
            quota_kwargs["packet_budget"] = config.packet_budget
        self.tenants = TenantManager(
            data_dir, default_quota=TenantQuota(**quota_kwargs)
        )
        self.registry = SessionRegistry(data_dir)
        self.scheduler = JobScheduler(
            self.registry,
            self.tenants,
            pool_workers=config.pool_workers,
            shard_timeout=config.shard_timeout,
            queue_depth=config.max_queue_depth,
            auto_resume=config.auto_resume,
            auto_resume_max_attempts=config.auto_resume_max_attempts,
        )
        self.watchdog: Watchdog | None = None
        if config.watchdog_interval > 0:
            self.watchdog = Watchdog(
                self.scheduler,
                self.tenants,
                interval=config.watchdog_interval,
                wedge_deadline=config.wedge_deadline,
            )
        self.router = Router()
        self._register_routes()
        self._server: asyncio.base_events.Server | None = None
        self._shutdown = asyncio.Event()
        self.host = config.host
        self.port = config.port

    def _register_routes(self) -> None:
        add = self.router.add
        add("GET", "/healthz", self._handle_health)
        add("GET", "/metrics", self._handle_service_metrics)
        add("POST", "/v1/jobs", self._handle_submit)
        add("GET", "/v1/jobs", self._handle_list_jobs)
        add("GET", "/v1/jobs/{job_id}", self._handle_get_job)
        add("POST", "/v1/jobs/{job_id}/cancel", self._handle_cancel)
        add("POST", "/v1/jobs/{job_id}/resume", self._handle_resume)
        add("GET", "/v1/jobs/{job_id}/report", self._handle_report)
        add("GET", "/v1/jobs/{job_id}/status", self._handle_status)
        add("GET", "/v1/jobs/{job_id}/events", self._handle_events)
        add("GET", "/v1/jobs/{job_id}/metrics", self._handle_run_metrics)
        add(
            "GET",
            "/v1/jobs/{job_id}/metrics.prom",
            self._handle_run_metrics_prom,
        )
        add("GET", "/v1/tenants/{tenant}/runs", self._handle_tenant_runs)
        add(
            "GET", "/v1/tenants/{tenant}/findings", self._handle_tenant_findings
        )
        add("GET", "/v1/tenants/{tenant}/corpus", self._handle_tenant_corpus)
        add(
            "GET",
            "/v1/tenants/{tenant}/corpus/{entry_id}",
            self._handle_tenant_corpus_entry,
        )
        add("POST", "/v1/admin/shutdown", self._handle_shutdown)

    # -- request helpers -----------------------------------------------------------

    def _tenant(self, request: Request) -> str:
        tenant = request.header(TENANT_HEADER.lower())
        if not tenant:
            raise HttpError(400, f"missing {TENANT_HEADER} header")
        if not NAMESPACE_RE.match(tenant):
            raise HttpError(400, f"invalid tenant name {tenant!r}")
        return tenant

    def _own_tenant(self, request: Request, tenant: str) -> str:
        """Tenant-scoped paths must match the caller's identity."""
        caller = self._tenant(request)
        if caller != tenant:
            # 404, not 403: a tenant cannot probe another's existence.
            raise HttpError(404, f"no such resource for tenant {caller!r}")
        return tenant

    def _job(self, request: Request, job_id: str) -> JobRecord:
        tenant = self._tenant(request)
        try:
            record = self.registry.get(job_id)
        except UnknownJobError:
            record = None
        if record is None or record.spec.tenant != tenant:
            raise HttpError(404, f"no job {job_id!r}")
        return record

    def _run_dir(self, record: JobRecord) -> Path:
        if record.run_id is None:
            raise HttpError(
                409, f"job {record.job_id} has no recorded run yet"
            )
        return self.tenants.runs_dir(record.spec.tenant) / record.run_id

    # -- handlers: service ---------------------------------------------------------

    async def _handle_health(self, request: Request) -> Response:
        records = self.registry.jobs()
        counts: dict[str, int] = {}
        for record in records:
            counts[record.status] = counts.get(record.status, 0) + 1
        return Response.json_response(
            {
                "status": "draining" if self.scheduler.draining else "ok",
                "jobs": counts,
                "pool_workers": self.config.pool_workers,
            }
        )

    async def _handle_service_metrics(self, request: Request) -> Response:
        return Response.text(
            self.scheduler.metrics.to_prometheus(),
            content_type="text/plain; version=0.0.4",
        )

    async def _handle_shutdown(self, request: Request) -> Response:
        # Stop admission *before* acknowledging: a submit that races the
        # shutdown either lands durably or gets a clean 503, never an
        # accepted job the dying service silently drops.
        self.scheduler.begin_drain()
        self._shutdown.set()
        return Response.json_response({"status": "draining"}, status=202)

    # -- handlers: jobs ------------------------------------------------------------

    async def _handle_submit(self, request: Request) -> Response:
        tenant = self._tenant(request)
        body = request.json()
        if body.get("tenant") not in (None, tenant):
            raise HttpError(
                403, "body tenant does not match the authenticated tenant"
            )
        body["tenant"] = tenant
        idempotency_key = request.header("idempotency-key")
        try:
            spec = JobSpec.from_dict(body)
            record, created = await asyncio.to_thread(
                self.scheduler.submit_idempotent, spec, idempotency_key
            )
        except JobValidationError as error:
            raise HttpError(400, str(error)) from error
        except ServiceSaturatedError as error:
            response = error_response(503, str(error))
            response.headers["Retry-After"] = str(
                max(1, round(error.retry_after))
            )
            return response
        except QuotaExceededError as error:
            raise HttpError(429, str(error)) from error
        except JournalWriteError as error:
            # The job is not admitted (registry rolled it back); the
            # disk may recover, so tell the client to retry later.
            response = error_response(503, str(error))
            response.headers["Retry-After"] = "5"
            return response
        response = Response.json_response(
            record.to_dict(), status=202 if created else 200
        )
        if not created:
            # Replay of an earlier submit with the same Idempotency-Key:
            # same job, nothing charged twice.
            response.headers["X-Repro-Idempotent-Replay"] = "true"
        return response

    async def _handle_list_jobs(self, request: Request) -> Response:
        tenant = self._tenant(request)
        return Response.json_response(
            {
                "jobs": [
                    record.to_dict() for record in self.registry.jobs(tenant)
                ]
            }
        )

    async def _handle_get_job(
        self, request: Request, job_id: str
    ) -> Response:
        return Response.json_response(self._job(request, job_id).to_dict())

    async def _handle_cancel(self, request: Request, job_id: str) -> Response:
        record = self._job(request, job_id)
        try:
            record = await asyncio.to_thread(
                self.scheduler.cancel, job_id, record.spec.tenant
            )
        except JobStateError as error:
            raise HttpError(409, str(error)) from error
        return Response.json_response(record.to_dict(), status=202)

    async def _handle_resume(self, request: Request, job_id: str) -> Response:
        record = self._job(request, job_id)
        try:
            resumed = await asyncio.to_thread(
                self.scheduler.resume, job_id, record.spec.tenant
            )
        except JobStateError as error:
            raise HttpError(409, str(error)) from error
        except QuotaExceededError as error:
            raise HttpError(429, str(error)) from error
        return Response.json_response(resumed.to_dict(), status=202)

    async def _handle_report(self, request: Request, job_id: str) -> Response:
        record = self._job(request, job_id)
        if record.status != "finished":
            raise HttpError(
                409, f"job {job_id} is {record.status}; no report yet"
            )
        text = await asyncio.to_thread(self.registry.report_text, job_id)
        if text is None:
            raise HttpError(404, f"report for job {job_id} not found")
        # Serve the stored bytes verbatim: the report is the byte-exact
        # artifact the determinism tests pin.
        return Response(status=200, body=text.encode("utf-8"))

    async def _handle_status(self, request: Request, job_id: str) -> Response:
        record = self._job(request, job_id)
        run_dir = self._run_dir(record)
        status = status_to_dict(await asyncio.to_thread(run_status, run_dir))
        status["job"] = record.to_dict()
        return Response.json_response(status)

    async def _handle_events(
        self, request: Request, job_id: str
    ) -> StreamingResponse:
        record = self._job(request, job_id)
        run_dir = self._run_dir(record)
        follow = request.query.get("follow", "0") not in ("0", "false", "")
        return StreamingResponse(
            self._event_stream(run_dir, record.job_id, follow)
        )

    async def _event_stream(self, run_dir: Path, job_id: str, follow: bool):
        # The journal is append-only, so the events already sent are
        # always its first *emitted* ones.
        journal = run_dir / EVENTS_FILENAME
        emitted = 0
        while True:
            events = await asyncio.to_thread(read_events, journal)
            for event in events[emitted:]:
                yield json.dumps(event, sort_keys=True) + "\n"
            emitted = len(events)
            if not follow:
                return
            record = self.registry.get(job_id)
            manifest = await asyncio.to_thread(load_manifest, run_dir)
            manifest_status = (manifest or {}).get("status")
            if not record.active and manifest_status != "running":
                # Final drain: anything emitted between the scan above
                # and the job going terminal.
                events = await asyncio.to_thread(read_events, journal)
                for event in events[emitted:]:
                    yield json.dumps(event, sort_keys=True) + "\n"
                return
            await asyncio.sleep(self.config.stream_interval)

    async def _handle_run_metrics(
        self, request: Request, job_id: str
    ) -> Response:
        return await self._serve_run_file(
            request, job_id, METRICS_JSON_FILENAME, "application/json"
        )

    async def _handle_run_metrics_prom(
        self, request: Request, job_id: str
    ) -> Response:
        return await self._serve_run_file(
            request,
            job_id,
            METRICS_PROM_FILENAME,
            "text/plain; version=0.0.4",
        )

    async def _serve_run_file(
        self, request: Request, job_id: str, filename: str, content_type: str
    ) -> Response:
        record = self._job(request, job_id)
        path = self._run_dir(record) / filename
        try:
            body = await asyncio.to_thread(path.read_bytes)
        except OSError as error:
            raise HttpError(
                404,
                f"{filename} not recorded yet for job {job_id}",
            ) from error
        return Response(status=200, body=body, content_type=content_type)

    # -- handlers: tenant resources ------------------------------------------------

    async def _handle_tenant_runs(
        self, request: Request, tenant: str
    ) -> Response:
        self._own_tenant(request, tenant)
        runs = await asyncio.to_thread(
            list_runs, self.tenants.runs_dir(tenant)
        )
        return Response.json_response(
            {"runs": [run_info_dict(info) for info in runs]}
        )

    async def _handle_tenant_findings(
        self, request: Request, tenant: str
    ) -> Response:
        self._own_tenant(request, tenant)
        filters = {
            "target": request.query.get("target"),
            "vendor": request.query.get("vendor"),
            "vulnerability_class": request.query.get("class"),
            "state": request.query.get("state"),
        }

        def _query() -> list[dict]:
            backend = self.tenants.open_corpus(tenant)
            try:
                return [
                    record_to_dict(record)
                    for record in backend.query_findings(**filters)
                ]
            finally:
                backend.close()

        findings = await asyncio.to_thread(_query)
        return Response.json_response({"findings": findings})

    async def _handle_tenant_corpus(
        self, request: Request, tenant: str
    ) -> Response:
        self._own_tenant(request, tenant)

        def _stats() -> dict:
            backend = self.tenants.open_corpus(tenant)
            try:
                stats = backend.stats()
                return {
                    "backend": backend.name,
                    "stats": dataclasses.asdict(stats),
                    "entries": [
                        entry.entry_id for entry in backend.entries()
                    ],
                }
            finally:
                backend.close()

        return Response.json_response(await asyncio.to_thread(_stats))

    async def _handle_tenant_corpus_entry(
        self, request: Request, tenant: str, entry_id: str
    ) -> Response:
        self._own_tenant(request, tenant)

        def _entry() -> dict | None:
            backend = self.tenants.open_corpus(tenant)
            try:
                for entry in backend.entries():
                    if entry.entry_id == entry_id:
                        return entry_to_dict(entry)
                return None
            finally:
                backend.close()

        entry = await asyncio.to_thread(_entry)
        if entry is None:
            raise HttpError(404, f"no corpus entry {entry_id!r}")
        return Response.json_response(entry)

    # -- server lifecycle ----------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request = await read_request(reader)
            except HttpError as error:
                await write_response(
                    writer, error_response(error.status, error.message)
                )
                return
            if request is None:
                return
            try:
                handler, params = self.router.route(
                    request.method, request.path
                )
                response = await handler(request, **params)
            except HttpError as error:
                response = error_response(error.status, error.message)
            except Exception as error:  # noqa: BLE001 — keep serving
                _log.exception(
                    "unhandled error serving %s %s",
                    request.method,
                    request.path,
                )
                response = error_response(
                    500, f"{type(error).__name__}: {error}"
                )
            await write_response(writer, response)
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away mid-response
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def start(self) -> None:
        """Start the scheduler and bind the server (port 0 = ephemeral)."""
        await asyncio.to_thread(self.scheduler.start)
        if self.watchdog is not None:
            self.watchdog.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        _log.info("control plane listening on %s:%d", self.host, self.port)

    async def stop(self, abort_running: bool = True, drain: bool = False) -> None:
        """Close the server and stop the scheduler (and its pool).

        With ``drain`` the stop is the graceful-shutdown path: admission
        is already closed, the in-flight job's runtime commits and
        checkpoints its ready prefix of campaigns and the job lands
        ``aborted(resumable)``, queued jobs stay queued for the next
        start.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self.watchdog is not None:
            await asyncio.to_thread(self.watchdog.stop)
        if drain:
            await asyncio.to_thread(self.scheduler.drain)
        else:
            await asyncio.to_thread(self.scheduler.stop, abort_running)

    async def serve(self) -> None:
        """Start, run until shutdown (endpoint or SIGINT/SIGTERM), stop.

        Both shutdown signals and the shutdown endpoint take the drain
        path: stop admission, commit and checkpoint the in-flight job's
        ready campaigns, mark it resumable, exit 0. ``kill -9`` is the
        *other* durability story — the registry's write-ahead intents
        make that recoverable too.
        """
        await self.start()
        loop = asyncio.get_running_loop()

        def _signalled() -> None:
            self.scheduler.begin_drain()
            self._shutdown.set()

        for signum in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError, ValueError):
                loop.add_signal_handler(signum, _signalled)
        await self._shutdown.wait()
        await self.stop(drain=True)

    def run(self) -> None:
        """Blocking entry point for ``repro serve``."""
        asyncio.run(self.serve())

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"


class ControlPlaneThread:
    """A live server on a background thread (tests and benchmarks).

    Runs the control plane's asyncio loop off-thread, waits for the
    bound port, and tears everything down on :meth:`stop` / context
    exit.
    """

    def __init__(self, config: ServiceConfig) -> None:
        self.app = ControlPlane(config)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._start_error: BaseException | None = None

    def start(self) -> "ControlPlaneThread":
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run, name="control-plane", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise RuntimeError("control plane failed to start in 30s")
        if self._start_error is not None:
            raise RuntimeError(
                f"control plane failed to start: {self._start_error}"
            )
        return self

    def _run(self) -> None:
        assert self._loop is not None
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self.app.start())
        except BaseException as error:  # noqa: BLE001 — surfaced to start()
            self._start_error = error
            self._started.set()
            return
        self._started.set()
        self._loop.run_forever()
        # stop() stopped the loop; finish the teardown coroutine here.
        self._loop.run_until_complete(self.app.stop(abort_running=True))
        self._loop.close()

    def stop(self) -> None:
        if self._loop is None or self._thread is None:
            return
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=60)
        self._thread = None
        self._loop = None

    @property
    def base_url(self) -> str:
        return self.app.base_url

    def __enter__(self) -> "ControlPlaneThread":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()
