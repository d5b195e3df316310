"""Job model: the spec a tenant submits and the lifecycle record.

A :class:`JobSpec` is a :class:`~repro.core.config.FleetSpec` — the
fleet job ``repro fleet`` runs — plus the service-only fields (tenant,
priority, corpus opt-in). Validation is
:meth:`~repro.core.config.FleetSpec.validate`, the check the
orchestrator itself runs, called eagerly at submit time, so a bad spec
is a 400 at the API boundary, never a dead job.

A :class:`JobRecord` is the registry's unit of persistence: one job's
spec, status, timestamps and result totals, serialised to one JSON
manifest. Statuses move ``queued → running → finished`` on the happy
path; ``cancelled`` (operator asked) and ``aborted`` (run failed, or
the service restarted under it) are the terminal failures — both
resumable when the run left checkpoints.
"""

from __future__ import annotations

import dataclasses
import datetime
import secrets
import time

from repro.core.config import FleetSpec, FleetSpecError
from repro.errors import ReproError

#: Every job lifecycle state, in rough lifecycle order.
JOB_STATUSES = ("queued", "running", "finished", "cancelled", "aborted")

#: Statuses a job can be resumed from (given a recorded run).
RESUMABLE_STATUSES = ("cancelled", "aborted")

#: Lowest .. highest submittable priority (0 runs first).
PRIORITY_RANGE = (0, 9)


class JobError(ReproError):
    """Base class for job-layer failures."""


#: A submitted spec that names something unknown or holds a bad value:
#: the fleet spec's own error, so one ``except`` serves both layers.
JobValidationError = FleetSpecError


class QuotaExceededError(JobError):
    """A submission the tenant's quota does not admit."""


class UnknownJobError(JobError, KeyError):
    """A job id that does not exist (or belongs to another tenant)."""


class JobStateError(JobError):
    """An operation the job's current status does not allow."""


class ServiceSaturatedError(JobError):
    """A submission the service's bounded queue cannot admit right now.

    Maps to HTTP 503 with a ``Retry-After`` header — the client should
    back off and retry, nothing about the request itself is wrong.
    """

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


def new_job_id() -> str:
    """A sortable, collision-safe job identifier."""
    stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
    return f"job-{stamp}-{secrets.token_hex(4)}"


def _iso(epoch: float | None) -> str | None:
    if epoch is None:
        return None
    return datetime.datetime.fromtimestamp(
        epoch, datetime.timezone.utc
    ).isoformat(timespec="seconds")


@dataclasses.dataclass(frozen=True, kw_only=True)
class JobSpec(FleetSpec):
    """What a tenant asks the fleet to run: a :class:`FleetSpec` plus
    the service-only fields.

    :param tenant: namespace the job (and its corpus/findings) belongs
        to.
    :param priority: 0 (first) .. 9 (last); FIFO within a priority.
    :param use_corpus: write findings/entries back to the tenant's
        corpus namespace and seed campaigns from it.
    """

    tenant: str
    priority: int = 5
    use_corpus: bool = False

    def validate(self) -> None:
        """Check the tenant and priority, then the fleet fields.

        :raises JobValidationError: naming the first offending field.
        """
        from repro.corpus.backend import NAMESPACE_RE

        if not NAMESPACE_RE.match(self.tenant):
            raise JobValidationError(f"invalid tenant name {self.tenant!r}")
        low, high = PRIORITY_RANGE
        if not low <= self.priority <= high:
            raise JobValidationError(
                f"priority must be {low}..{high}, got {self.priority}"
            )
        super().validate()


@dataclasses.dataclass
class JobRecord:
    """One job's lifecycle, as the registry persists it.

    Timestamps are epoch floats (ISO renderings are derived in
    :meth:`to_dict`); ``run_id`` is the telemetry run the job records
    into — set as soon as the orchestrator is constructed, so cancel,
    status and resume can find the run directory while the job is still
    running. ``resume_of`` links a resume job back to the terminal job
    it continues (both share ``run_id``).
    """

    job_id: str
    spec: JobSpec
    status: str = "queued"
    created: float = 0.0
    started: float | None = None
    finished: float | None = None
    run_id: str | None = None
    error: str | None = None
    resume_of: str | None = None
    campaigns: int | None = None
    packets: int | None = None
    findings: int | None = None
    merged_state_count: int | None = None
    #: The tenant's Idempotency-Key for the submit that created this
    #: job; a replayed submit with the same key returns this record.
    idempotency_key: str | None = None
    #: True once a cancelled-while-queued job's packet-budget charge
    #: has been handed back — set atomically with the status flip, so
    #: the refund happens exactly once even across restarts.
    quota_refunded: bool = False
    #: How many automatic (watchdog/restart) resumes the chain ending
    #: in this job has consumed; the cap lives in the scheduler.
    auto_resume_attempts: int = 0

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "job_id": self.job_id,
            "spec": self.spec.to_dict(),
            "status": self.status,
            "created": self.created,
            "created_at": _iso(self.created),
            "started": self.started,
            "started_at": _iso(self.started),
            "finished": self.finished,
            "finished_at": _iso(self.finished),
            "run_id": self.run_id,
            "error": self.error,
            "resume_of": self.resume_of,
            "campaigns": self.campaigns,
            "packets": self.packets,
            "findings": self.findings,
            "merged_state_count": self.merged_state_count,
            "idempotency_key": self.idempotency_key,
            "quota_refunded": self.quota_refunded,
            "auto_resume_attempts": self.auto_resume_attempts,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "JobRecord":
        return cls(
            job_id=str(data["job_id"]),
            spec=JobSpec.from_dict(data["spec"]),
            status=str(data.get("status", "queued")),
            created=float(data.get("created", 0.0)),
            started=data.get("started"),
            finished=data.get("finished"),
            run_id=data.get("run_id"),
            error=data.get("error"),
            resume_of=data.get("resume_of"),
            campaigns=data.get("campaigns"),
            packets=data.get("packets"),
            findings=data.get("findings"),
            merged_state_count=data.get("merged_state_count"),
            idempotency_key=data.get("idempotency_key"),
            quota_refunded=bool(data.get("quota_refunded", False)),
            auto_resume_attempts=int(data.get("auto_resume_attempts", 0)),
        )

    @property
    def active(self) -> bool:
        """Whether the job still occupies a concurrent-job quota slot."""
        return self.status in ("queued", "running")

    @property
    def resumable(self) -> bool:
        """Whether a resume submission can pick this job up."""
        return self.status in RESUMABLE_STATUSES and self.run_id is not None
