"""Stdlib HTTP client for the control plane.

The ``repro jobs`` CLI, the service tests and the benchmark all speak
through this thin :mod:`http.client` wrapper — one connection per
request (the server answers ``Connection: close``), tenant identity in
the ``X-Repro-Tenant`` header, JSON in/out, and error payloads raised
as :class:`ServiceError` with the HTTP status attached.

**Retries.** Requests that are safe to replay — GETs, cancels,
shutdowns, and submits that carry an ``Idempotency-Key`` — retry on
dropped connections and on 503 (honouring the server's ``Retry-After``)
with capped exponential backoff plus jitter. A submit *without* a key
never retries: the client cannot know whether the lost response
admitted a job. Resume never retries either (each resume creates a new
continuation job).
"""

from __future__ import annotations

import http.client
import json
import random
import time
from collections.abc import Iterator
from urllib.parse import urlencode, urlsplit

from repro.durability import backoff_delay
from repro.errors import ReproError
from repro.service.jobs import JOB_STATUSES

TENANT_HEADER = "X-Repro-Tenant"

#: Exceptions that mean "the bytes may not have reached the server".
RETRYABLE_EXCEPTIONS = (OSError, http.client.HTTPException)


class ServiceError(ReproError):
    """An HTTP-level failure from the control plane."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"[{status}] {message}")
        self.status = status
        self.message = message


class ServiceClient:
    """Talks to one control plane on behalf of one tenant."""

    def __init__(
        self,
        base_url: str,
        tenant: str | None = None,
        timeout: float = 30.0,
        retries: int = 3,
        backoff: float = 0.05,
        backoff_cap: float = 2.0,
    ) -> None:
        split = urlsplit(base_url)
        if split.scheme != "http" or not split.hostname:
            raise ValueError(
                f"base_url must be an http://host:port URL, got {base_url!r}"
            )
        self.host = split.hostname
        self.port = split.port or 80
        self.tenant = tenant
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.backoff_cap = backoff_cap

    # -- plumbing ------------------------------------------------------------------

    def _headers(self) -> dict[str, str]:
        headers = {"Accept": "application/json"}
        if self.tenant:
            headers[TENANT_HEADER] = self.tenant
        return headers

    def _sleep_before_retry(self, attempt: int, floor: float = 0.0) -> None:
        """Capped exponential backoff with full jitter (attempt is 0-based)."""
        ceiling = backoff_delay(attempt, self.backoff, self.backoff_cap)
        time.sleep(max(floor, random.uniform(0, ceiling)))

    def _once(
        self,
        method: str,
        path: str,
        payload: bytes | None,
        headers: dict[str, str],
    ) -> tuple[int, bytes, dict[str, str]]:
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            data = response.read()
            response_headers = {
                name.lower(): value for name, value in response.getheaders()
            }
            return response.status, data, response_headers
        finally:
            connection.close()

    def _request(
        self,
        method: str,
        path: str,
        body: dict | None = None,
        query: dict | None = None,
        headers: dict[str, str] | None = None,
        retryable: bool = False,
    ) -> tuple[int, bytes, dict[str, str]]:
        if query:
            filtered = {k: v for k, v in query.items() if v is not None}
            if filtered:
                path = f"{path}?{urlencode(filtered)}"
        request_headers = self._headers()
        if headers:
            request_headers.update(headers)
        payload = None
        if body is not None:
            payload = json.dumps(body).encode("utf-8")
            request_headers["Content-Type"] = "application/json"
        attempts = self.retries if retryable else 0
        for attempt in range(attempts + 1):
            try:
                status, data, response_headers = self._once(
                    method, path, payload, request_headers
                )
            except RETRYABLE_EXCEPTIONS:
                # Dropped connection / timeout: the server may be
                # restarting under us — worth another try iff replaying
                # the request cannot double anything.
                if attempt >= attempts:
                    raise
                self._sleep_before_retry(attempt)
                continue
            if status == 503 and retryable and attempt < attempts:
                try:
                    floor = float(response_headers.get("retry-after", 0))
                except ValueError:
                    floor = 0.0
                self._sleep_before_retry(
                    attempt, floor=min(floor, self.backoff_cap)
                )
                continue
            return status, data, response_headers
        raise AssertionError("unreachable")  # pragma: no cover

    def _json(
        self,
        method: str,
        path: str,
        body: dict | None = None,
        query: dict | None = None,
        headers: dict[str, str] | None = None,
        retryable: bool = False,
    ) -> dict:
        status, data, _ = self._request(
            method,
            path,
            body=body,
            query=query,
            headers=headers,
            retryable=retryable,
        )
        try:
            payload = json.loads(data.decode("utf-8")) if data else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ServiceError(
                status, f"undecodable response body: {error}"
            ) from error
        if status >= 400:
            message = (
                payload.get("error", data.decode("utf-8", "replace"))
                if isinstance(payload, dict)
                else str(payload)
            )
            raise ServiceError(status, message)
        return payload

    def _raw(self, path: str, query: dict | None = None) -> bytes:
        status, data, _ = self._request(
            "GET", path, query=query, retryable=True
        )
        if status >= 400:
            try:
                message = json.loads(data.decode("utf-8")).get("error", "")
            except (ValueError, AttributeError):
                message = data.decode("utf-8", "replace")
            raise ServiceError(status, message)
        return data

    # -- endpoints -----------------------------------------------------------------

    def health(self) -> dict:
        return self._json("GET", "/healthz", retryable=True)

    def submit(self, spec: dict, idempotency_key: str | None = None) -> dict:
        """Submit a job spec; returns the created (or replayed) record.

        With *idempotency_key* the submit is safe to retry — and this
        client does, across dropped connections and 503s; the server
        deduplicates on the key, so at most one job is ever admitted.
        """
        headers = (
            {"Idempotency-Key": idempotency_key}
            if idempotency_key is not None
            else None
        )
        return self._json(
            "POST",
            "/v1/jobs",
            body=spec,
            headers=headers,
            retryable=idempotency_key is not None,
        )

    def jobs(self) -> list[dict]:
        return self._json("GET", "/v1/jobs", retryable=True)["jobs"]

    def job(self, job_id: str) -> dict:
        return self._json("GET", f"/v1/jobs/{job_id}", retryable=True)

    def cancel(self, job_id: str) -> dict:
        return self._json(
            "POST", f"/v1/jobs/{job_id}/cancel", retryable=True
        )

    def resume(self, job_id: str) -> dict:
        """Resume a cancelled/aborted job; returns the new job record."""
        return self._json("POST", f"/v1/jobs/{job_id}/resume")

    def report_text(self, job_id: str) -> str:
        """The merged FleetReport JSON, byte-for-byte as stored."""
        return self._raw(f"/v1/jobs/{job_id}/report").decode("utf-8")

    def report(self, job_id: str) -> dict:
        return json.loads(self.report_text(job_id))

    def status(self, job_id: str) -> dict:
        return self._json("GET", f"/v1/jobs/{job_id}/status", retryable=True)

    def run_metrics(self, job_id: str) -> dict:
        return self._json(
            "GET", f"/v1/jobs/{job_id}/metrics", retryable=True
        )

    def run_metrics_prometheus(self, job_id: str) -> str:
        return self._raw(f"/v1/jobs/{job_id}/metrics.prom").decode("utf-8")

    def service_metrics(self) -> str:
        return self._raw("/metrics").decode("utf-8")

    def runs(self) -> list[dict]:
        return self._json(
            "GET", f"/v1/tenants/{self.tenant}/runs", retryable=True
        )["runs"]

    def findings(self, **filters: str | None) -> list[dict]:
        return self._json(
            "GET",
            f"/v1/tenants/{self.tenant}/findings",
            query=filters,
            retryable=True,
        )["findings"]

    def corpus(self) -> dict:
        return self._json(
            "GET", f"/v1/tenants/{self.tenant}/corpus", retryable=True
        )

    def shutdown(self) -> dict:
        return self._json("POST", "/v1/admin/shutdown", retryable=True)

    def events(self, job_id: str, follow: bool = False) -> Iterator[dict]:
        """Stream the job's journal events (chunked NDJSON) as dicts."""
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            path = f"/v1/jobs/{job_id}/events"
            if follow:
                path += "?follow=1"
            connection.request("GET", path, headers=self._headers())
            response = connection.getresponse()
            if response.status >= 400:
                data = response.read()
                try:
                    message = json.loads(data.decode("utf-8"))["error"]
                except (ValueError, KeyError):
                    message = data.decode("utf-8", "replace")
                raise ServiceError(response.status, message)
            buffer = b""
            # http.client de-chunks for us; reassemble NDJSON lines.
            while True:
                piece = response.read(65536)
                if not piece:
                    break
                buffer += piece
                while b"\n" in buffer:
                    line, _, buffer = buffer.partition(b"\n")
                    if line.strip():
                        yield json.loads(line.decode("utf-8"))
            if buffer.strip():
                yield json.loads(buffer.decode("utf-8"))
        finally:
            connection.close()

    # -- helpers -------------------------------------------------------------------

    def wait(
        self,
        job_id: str,
        timeout: float = 120.0,
        poll_floor: float = 0.05,
        poll_cap: float = 1.0,
    ) -> dict:
        """Poll until the job reaches a terminal status.

        The poll interval backs off exponentially from *poll_floor* to
        *poll_cap* with jitter — a long job is not hammered at 20 Hz —
        and dropped connections are tolerated until the deadline, so a
        wait spanning a service restart keeps waiting instead of dying
        with the old server's socket.
        """
        terminal = set(JOB_STATUSES) - {"queued", "running"}
        deadline = time.monotonic() + timeout
        interval = poll_floor
        while True:
            try:
                record = self.job(job_id)
            except RETRYABLE_EXCEPTIONS:
                record = None  # server momentarily unreachable
            if record is not None and record["status"] in terminal:
                return record
            if time.monotonic() >= deadline:
                if record is None:
                    raise TimeoutError(
                        f"service unreachable while waiting for job {job_id}"
                    )
                raise TimeoutError(
                    f"job {job_id} still {record['status']} after {timeout}s"
                )
            time.sleep(random.uniform(poll_floor, interval))
            interval = min(poll_cap, interval * 1.6)
