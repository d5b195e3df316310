"""Fuzzing-as-a-service control plane.

The long-lived layer the ROADMAP's north star asks for: an asyncio
HTTP API (stdlib only) in front of the persistent fleet machinery.
Three pieces, mirroring the classic routers/services/workers split:

* :mod:`repro.service.registry` / :mod:`repro.service.jobs` — the
  session registry: job specs, lifecycle records
  (queued → running → finished/cancelled/aborted) persisted one JSON
  manifest per job, recoverable across service restarts.
* :mod:`repro.service.scheduler` — FIFO-within-priority scheduling of
  jobs onto **one shared warm** :class:`~repro.core.runtime.FleetRuntime`
  worker pool (each job's context travels with its shards), with
  per-tenant quotas (:mod:`repro.service.tenants`), cancel via the
  runtime's abort hook and resume via the shard checkpoints.
* :mod:`repro.service.app` / :mod:`repro.service.http` /
  :mod:`repro.service.router` — the asyncio HTTP server: submit /
  list / get / cancel / resume jobs, stream journal events (chunked),
  serve live ``run_status``, ``metrics.json`` + Prometheus text, and
  query findings/corpus entries per tenant namespace.

:mod:`repro.service.client` is the stdlib HTTP client the
``repro jobs`` CLI (and the tests) speak through.
"""

from repro.service.app import ControlPlane, ControlPlaneThread, ServiceConfig
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import (
    JOB_STATUSES,
    JobError,
    JobRecord,
    JobSpec,
    JobStateError,
    JobValidationError,
    QuotaExceededError,
    ServiceSaturatedError,
    UnknownJobError,
)
from repro.service.registry import SessionRegistry
from repro.service.scheduler import JobScheduler
from repro.service.tenants import TenantManager, TenantQuota
from repro.service.watchdog import Watchdog

__all__ = [
    "JOB_STATUSES",
    "ControlPlane",
    "ControlPlaneThread",
    "JobError",
    "JobRecord",
    "JobScheduler",
    "JobSpec",
    "JobStateError",
    "JobValidationError",
    "QuotaExceededError",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "ServiceSaturatedError",
    "SessionRegistry",
    "TenantManager",
    "TenantQuota",
    "UnknownJobError",
    "Watchdog",
]
