"""Deterministic fault injection for the fleet runtime.

Chaos testing only earns its keep when it is reproducible: a recovery
path that fires on a random 1-in-200 run is a recovery path that rots.
This module injects faults *deterministically* — a :class:`FaultPlan`
is a seeded, picklable description of exactly which campaigns get hit
by exactly which failure, consulted by workers at shard boundaries via
the ``fault_plan`` hook on :class:`~repro.core.runtime.FleetContext`.

Fault kinds (:data:`FAULT_KINDS`):

* ``crash`` — the worker dies mid-shard. In a process-pool worker this
  is a hard ``os._exit`` (the orchestrator observes
  ``BrokenProcessPool``); on the inline path it raises
  :class:`WorkerCrashError`.
* ``hang`` — the worker sleeps for :attr:`FaultSpec.hang_seconds`
  before running the shard, exercising the supervisor's deadline and
  pool-restart path.
* ``corrupt`` — the shard completes but the target campaign's summary
  blob comes back truncated, exercising the
  :class:`~repro.core.runtime.SummaryDecodeError` retry path.
* ``corpus_io`` — the shard's corpus write-back raises a transient
  :class:`InjectedFaultError` before anything is written, exercising
  requeue without double-writing the corpus.

Each fault fires a bounded number of times (:attr:`FaultSpec.times`),
tracked in a filesystem *ledger* shared by every worker process —
marker files claimed with ``O_EXCL``, so one occurrence is claimed by
exactly one worker even under concurrent retries. Once a fault's
occurrences are exhausted, retried shards run clean; that is what makes
a chaos run converge to the byte-identical fault-free report.
"""

from __future__ import annotations

import dataclasses
import errno as errno_module
import json
import logging
import os
import random
import signal
import time
from pathlib import Path
from collections.abc import Sequence

from repro.errors import ReproError

_log = logging.getLogger(__name__)

#: Every fault kind a plan may carry, in documentation order.
FAULT_KINDS = ("crash", "hang", "corrupt", "corpus_io")


class WorkerCrashError(ReproError):
    """An injected worker crash, raised where a process exit cannot be."""


class InjectedFaultError(ReproError):
    """An injected transient failure (corpus IO, for now)."""


def _claim_occurrence(ledger_dir: str, name: str, times: int) -> bool:
    """Atomically claim one unfired occurrence of a named fault.

    Marker files are created with ``O_CREAT | O_EXCL``: the first
    claimant of each occurrence wins, every other claimant (or retry)
    moves on. Returns False once all occurrences are spent. The ledger
    survives process death, which is what keeps occurrence counts
    bounded across crashes and restarts.
    """
    ledger = Path(ledger_dir)
    ledger.mkdir(parents=True, exist_ok=True)
    for occurrence in range(times):
        marker = ledger / f"{name}-{occurrence:03d}"
        try:
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            continue
        return True
    return False


@dataclasses.dataclass(frozen=True)
class FaultSpec:
    """One planned fault: *kind* strikes the shard carrying *spec_index*.

    :param kind: one of :data:`FAULT_KINDS`.
    :param spec_index: the campaign index whose shard is targeted.
    :param times: how many occurrences fire before the fault goes quiet
        (retried shards then run clean).
    :param hang_seconds: sleep duration for ``hang`` faults.
    """

    kind: str
    spec_index: int
    times: int = 1
    hang_seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}"
                f" (choose from {', '.join(FAULT_KINDS)})"
            )
        if self.times < 1:
            raise ValueError("fault times must be >= 1")


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """A picklable set of planned faults plus their shared ledger.

    The plan ships to workers inside the fleet context; the ledger
    directory is how occurrences stay bounded across worker restarts —
    a crashed worker cannot remember it already crashed, but the marker
    file it claimed before dying can.
    """

    faults: tuple[FaultSpec, ...]
    ledger_dir: str

    # -- ledger -------------------------------------------------------------------

    def _claim(self, fault: FaultSpec) -> bool:
        """Atomically claim one unfired occurrence of *fault*.

        Marker files are created with ``O_CREAT | O_EXCL``: the first
        claimant of each occurrence wins, every other worker (or retry)
        moves on. Returns False once all occurrences are spent.
        """
        return _claim_occurrence(
            self.ledger_dir,
            f"{fault.kind}-{fault.spec_index:06d}",
            fault.times,
        )

    def _armed(self, shard: Sequence, kinds: tuple[str, ...]):
        indices = {spec[0] for spec in shard}
        for fault in self.faults:
            if fault.kind in kinds and fault.spec_index in indices:
                yield fault

    # -- worker-side hooks ---------------------------------------------------------

    def on_shard_start(self, shard: Sequence, in_process_worker: bool) -> None:
        """Fire any planned crash/hang for *shard* (shard boundary hook)."""
        for fault in self._armed(shard, ("hang", "crash")):
            if not self._claim(fault):
                continue
            if fault.kind == "hang":
                time.sleep(fault.hang_seconds)
            elif in_process_worker:
                # A real worker death: skip interpreter teardown so the
                # orchestrator sees exactly what a SIGKILLed or OOMed
                # worker process produces — a broken pool.
                os._exit(2)
            else:
                raise WorkerCrashError(
                    f"injected worker crash on campaign {fault.spec_index}"
                )

    def on_corpus_writeback(self, shard: Sequence) -> None:
        """Fire a planned transient corpus IO error, before any write."""
        for fault in self._armed(shard, ("corpus_io",)):
            if self._claim(fault):
                raise InjectedFaultError(
                    "injected transient corpus IO error on campaign "
                    f"{fault.spec_index}"
                )

    def corrupt_blobs(self, shard: Sequence, blobs: list[bytes]) -> list[bytes]:
        """Truncate the planned campaigns' summary blobs."""
        corrupt_indices = {
            fault.spec_index
            for fault in self._armed(shard, ("corrupt",))
            if self._claim(fault)
        }
        if not corrupt_indices:
            return blobs
        return [
            blob[: max(1, len(blob) // 3)] if spec[0] in corrupt_indices else blob
            for spec, blob in zip(shard, blobs)
        ]


def seeded_plan(
    seed: int,
    spec_count: int,
    kinds: Sequence[str],
    ledger_dir: str | Path,
    faults_per_kind: int = 1,
    times: int = 1,
    hang_seconds: float = 30.0,
) -> FaultPlan:
    """Derive a deterministic chaos plan over a fleet of *spec_count* campaigns.

    The targeted campaign indices are a pure function of *seed* (and the
    argument list), so ``repro fleet --chaos`` hits the same campaigns
    on every machine — a chaos failure in CI reproduces locally.
    """
    if spec_count < 1:
        raise ValueError("spec_count must be >= 1")
    rng = random.Random(f"chaos:{seed}:{spec_count}")
    faults = []
    for kind in kinds:
        for spec_index in rng.sample(
            range(spec_count), min(faults_per_kind, spec_count)
        ):
            faults.append(
                FaultSpec(
                    kind=kind,
                    spec_index=spec_index,
                    times=times,
                    hang_seconds=hang_seconds,
                )
            )
    return FaultPlan(faults=tuple(faults), ledger_dir=str(ledger_dir))


# ---------------------------------------------------------------------------
# Service-level chaos: faults for the control plane itself
# ---------------------------------------------------------------------------

#: Every service fault kind, in documentation order.
SERVICE_FAULT_KINDS = (
    "registry_io",  # manifest/intent write raises ENOSPC
    "journal_io",  # telemetry journal append raises ENOSPC
    "torn_manifest",  # manifest bytes land truncated, then EIO
    "dispatcher_crash",  # the dispatcher thread dies mid-loop
    "kill",  # the whole service process is SIGKILLed
)

#: Instrumented sites a :class:`ServiceFaultSpec` may target. These are
#: the exact crash-anywhere points the acceptance harness exercises.
SERVICE_FAULT_SITES = (
    "registry.intent",  # before the write-ahead intent is durable
    "registry.manifest.pre",  # intent durable, manifest not yet written
    "registry.manifest.mid",  # between manifest tmp write and rename
    "scheduler.quota.charge",  # job persisted, HTTP ack not yet sent
    "scheduler.dispatch",  # top of the dispatcher loop
    "journal.emit",  # before a journal line is appended
)

#: Environment variable ``repro serve`` reads a fault plan from.
SERVICE_FAULTS_ENV = "REPRO_SERVICE_FAULTS"


@dataclasses.dataclass(frozen=True)
class ServiceFaultSpec:
    """One planned service fault: *kind* strikes at *site*.

    :param kind: one of :data:`SERVICE_FAULT_KINDS`.
    :param site: one of :data:`SERVICE_FAULT_SITES`; the fault fires on
        the first *times* arrivals at that site.
    :param times: occurrences before the fault goes quiet.
    """

    kind: str
    site: str
    times: int = 1

    def __post_init__(self) -> None:
        if self.kind not in SERVICE_FAULT_KINDS:
            raise ValueError(
                f"unknown service fault kind {self.kind!r}"
                f" (choose from {', '.join(SERVICE_FAULT_KINDS)})"
            )
        if self.site not in SERVICE_FAULT_SITES:
            raise ValueError(
                f"unknown service fault site {self.site!r}"
                f" (choose from {', '.join(SERVICE_FAULT_SITES)})"
            )
        if self.times < 1:
            raise ValueError("fault times must be >= 1")


@dataclasses.dataclass(frozen=True)
class ServiceFaultPlan:
    """A seeded set of control-plane faults plus their shared ledger.

    Installed process-wide with :func:`install_service_faults`; the
    registry, scheduler and journal call :func:`service_fault` at the
    instrumented sites. Occurrences are bounded by the same marker-file
    ledger the worker-level :class:`FaultPlan` uses, so a fault that
    SIGKILLed the service does not re-fire after the restart that
    shares the ledger directory.
    """

    faults: tuple[ServiceFaultSpec, ...]
    ledger_dir: str

    def fire(self, site: str) -> ServiceFaultSpec | None:
        """Fire any armed fault for *site*.

        ``registry_io``/``journal_io`` raise :class:`OSError` (ENOSPC),
        ``dispatcher_crash`` raises :class:`WorkerCrashError`, ``kill``
        SIGKILLs the process — the real crash-anywhere event, no
        teardown runs. ``torn_manifest`` is returned to the caller,
        which owns the bytes being written and performs the tear.
        """
        for fault in self.faults:
            if fault.site != site:
                continue
            if not _claim_occurrence(
                self.ledger_dir, f"{fault.kind}-{fault.site}", fault.times
            ):
                continue
            if fault.kind == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            if fault.kind == "dispatcher_crash":
                raise WorkerCrashError(
                    f"injected dispatcher crash at {site}"
                )
            if fault.kind in ("registry_io", "journal_io"):
                raise OSError(
                    errno_module.ENOSPC,
                    f"injected {fault.kind} fault at {site}",
                )
            return fault  # torn_manifest: the writer does the tearing
        return None

    # -- (de)serialisation — ships the plan into a server subprocess ----

    def to_json(self) -> str:
        return json.dumps(
            {
                "ledger_dir": self.ledger_dir,
                "faults": [dataclasses.asdict(fault) for fault in self.faults],
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "ServiceFaultPlan":
        data = json.loads(text)
        return cls(
            faults=tuple(
                ServiceFaultSpec(**fault) for fault in data["faults"]
            ),
            ledger_dir=str(data["ledger_dir"]),
        )


#: The process-wide active plan; None means every site is a no-op.
_SERVICE_PLAN: ServiceFaultPlan | None = None


def service_fault(site: str) -> ServiceFaultSpec | None:
    """The hook the instrumented sites call; no-op without a plan."""
    if _SERVICE_PLAN is None:
        return None
    return _SERVICE_PLAN.fire(site)


def install_service_faults(plan: ServiceFaultPlan | None) -> None:
    """Install (or with None, clear) the process-wide service plan.

    Also wires the telemetry journal's fault hook, which cannot import
    this module at module scope (the core package imports telemetry).
    """
    global _SERVICE_PLAN
    _SERVICE_PLAN = plan
    from repro.telemetry import journal

    journal.set_fault_hook(service_fault if plan is not None else None)


def install_service_faults_from_env() -> ServiceFaultPlan | None:
    """Install the plan carried in :data:`SERVICE_FAULTS_ENV`, if any.

    ``repro serve`` calls this at start-up so the crash-anywhere
    harness can arm a *subprocess* server without any code path of its
    own. Returns the installed plan (None when the variable is unset).
    """
    text = os.environ.get(SERVICE_FAULTS_ENV)
    if not text:
        return None
    plan = ServiceFaultPlan.from_json(text)
    install_service_faults(plan)
    _log.warning(
        "service fault injection armed: %d fault(s), ledger %s",
        len(plan.faults),
        plan.ledger_dir,
    )
    return plan


__all__ = [
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "InjectedFaultError",
    "SERVICE_FAULTS_ENV",
    "SERVICE_FAULT_KINDS",
    "SERVICE_FAULT_SITES",
    "ServiceFaultPlan",
    "ServiceFaultSpec",
    "WorkerCrashError",
    "install_service_faults",
    "install_service_faults_from_env",
    "seeded_plan",
    "service_fault",
]
