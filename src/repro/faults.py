"""Deterministic fault injection for the fleet runtime and the control plane.

Chaos testing only earns its keep when it is reproducible: a recovery
path that fires on a random 1-in-200 run is a recovery path that rots.
A :class:`FaultPlan` is a seeded, picklable list of :class:`FaultSpec`
— which failure strikes at which *site* — plus a shared ledger. Every
instrumented site calls :meth:`FaultPlan.fire` with its name.

Worker faults (:data:`FAULT_KINDS`, what ``repro fleet --chaos``
accepts) strike the shard carrying one campaign index. The plan ships
to the workers in :attr:`~repro.core.runtime.FleetContext.fault_plan`.

* ``crash`` at ``shard.start`` — the worker dies mid-shard. In a
  process-pool worker this is a hard ``os._exit`` (the orchestrator
  observes ``BrokenProcessPool``); on the inline path it raises
  :class:`WorkerCrashError`.
* ``hang`` at ``shard.start`` — the worker sleeps for
  :attr:`FaultSpec.hang_seconds` before running the shard, exercising
  the supervisor's deadline and pool-restart path.
* ``corrupt`` at ``shard.summary`` — the shard completes but the target
  campaign's summary blob comes back truncated, exercising the
  :class:`~repro.core.runtime.SummaryDecodeError` retry path.
* ``corpus_io`` at ``shard.writeback`` — the shard's corpus write-back
  raises a transient :class:`InjectedFaultError` before anything is
  written, exercising requeue without double-writing the corpus.

Service faults (:data:`SERVICE_FAULT_KINDS`) strike the control plane
at any of the six :data:`SERVICE_FAULT_SITES`. ``repro serve`` installs
one plan process-wide from :data:`SERVICE_FAULTS_ENV`, and the
registry, scheduler and telemetry journal call :func:`service_fault`.

Each fault fires a bounded number of times (:attr:`FaultSpec.times`),
tracked in a filesystem *ledger* shared by every process — marker files
claimed with ``O_EXCL``, so one occurrence is claimed by exactly one
worker even under concurrent retries, and a fault that killed its
process does not re-fire after the restart. Once a fault's occurrences
are exhausted, retried work runs clean; that is what makes a chaos run
converge to the byte-identical fault-free report.
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
from collections.abc import Collection, Sequence
from pathlib import Path

from repro.errors import ReproError

_log = logging.getLogger(__name__)

#: The shard site each worker fault kind strikes, in documentation order.
SHARD_SITES = {
    "crash": "shard.start",
    "hang": "shard.start",
    "corrupt": "shard.summary",
    "corpus_io": "shard.writeback",
}

#: Every worker fault kind (the ``--chaos`` vocabulary).
FAULT_KINDS = tuple(SHARD_SITES)

#: Every service fault kind, in documentation order.
SERVICE_FAULT_KINDS = (
    "registry_io",  # manifest/intent write raises ENOSPC
    "journal_io",  # telemetry journal append raises ENOSPC
    "torn_manifest",  # manifest bytes land truncated, then EIO
    "dispatcher_crash",  # the dispatcher thread dies mid-loop
    "kill",  # the whole service process is SIGKILLed
)

#: The control-plane sites a service fault may target. These are the
#: exact crash-anywhere points the acceptance harness exercises.
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
    """One planned fault: *kind* strikes at *site*.

    :param kind: one of :data:`FAULT_KINDS` or :data:`SERVICE_FAULT_KINDS`.
    :param site: where it strikes — the kind's :data:`SHARD_SITES` entry
        for a worker fault, one of :data:`SERVICE_FAULT_SITES` for a
        service fault.
    :param spec_index: the campaign index whose shard a worker fault
        targets; service faults take none.
    :param times: how many occurrences fire before the fault goes quiet
        (retried work then runs clean).
    :param hang_seconds: sleep duration for ``hang`` faults.
    """

    kind: str
    site: str
    spec_index: int | None = None
    times: int = 1
    hang_seconds: float = 30.0

    def __post_init__(self) -> None:
        worker = self.kind in SHARD_SITES
        if worker:
            sites: Sequence[str] = (SHARD_SITES[self.kind],)
        elif self.kind in SERVICE_FAULT_KINDS:
            sites = SERVICE_FAULT_SITES
        else:
            raise ValueError(
                f"unknown fault kind {self.kind!r} (choose from"
                f" {', '.join(FAULT_KINDS + SERVICE_FAULT_KINDS)})"
            )
        if self.site not in sites:
            raise ValueError(
                f"a {self.kind} fault strikes at {', '.join(sites)},"
                f" not {self.site!r}"
            )
        if worker != (self.spec_index is not None):
            raise ValueError(
                f"a {self.kind} fault {'needs a' if worker else 'takes no'}"
                " campaign spec_index"
            )
        if self.times < 1:
            raise ValueError("fault times must be >= 1")

    @property
    def ledger_name(self) -> str:
        """This fault's marker-file prefix in the ledger."""
        if self.spec_index is not None:
            return f"{self.kind}-{self.spec_index:06d}"
        return f"{self.kind}-{self.site}"


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """A picklable set of planned faults plus their shared ledger.

    The ledger directory is how occurrences stay bounded across process
    restarts — a crashed worker cannot remember it already crashed, but
    the marker file it claimed before dying can.
    """

    faults: tuple[FaultSpec, ...]
    ledger_dir: str

    def fire(
        self,
        site: str,
        campaigns: Collection[int] = (),
        in_process_worker: bool = False,
    ) -> list[FaultSpec]:
        """Fire every armed fault at *site*.

        A worker fault is armed when its campaign index is in
        *campaigns*, the indices of the shard at hand. ``crash`` exits
        the process when *in_process_worker* is set and raises
        :class:`WorkerCrashError` otherwise; ``dispatcher_crash`` raises
        it too. ``hang`` sleeps, ``corpus_io`` raises
        :class:`InjectedFaultError`, ``registry_io``/``journal_io``
        raise :class:`OSError` (ENOSPC) and ``kill`` SIGKILLs the
        process — the real crash-anywhere event, no teardown runs.
        ``corrupt`` and ``torn_manifest`` are returned: the caller owns
        the bytes and does the damage.
        """
        returned = []
        for fault in self.faults:
            if fault.site != site or (
                fault.spec_index is not None and fault.spec_index not in campaigns
            ):
                continue
            if not _claim_occurrence(self.ledger_dir, fault.ledger_name, fault.times):
                continue
            kind = fault.kind
            if kind == "hang":
                time.sleep(fault.hang_seconds)
            elif kind == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            elif kind == "crash" and in_process_worker:
                # A real worker death: skip interpreter teardown so the
                # orchestrator sees exactly what a SIGKILLed or OOMed
                # worker process produces — a broken pool.
                os._exit(2)
            elif kind == "crash":
                raise WorkerCrashError(
                    f"injected worker crash on campaign {fault.spec_index}"
                )
            elif kind == "dispatcher_crash":
                raise WorkerCrashError(f"injected dispatcher crash at {site}")
            elif kind == "corpus_io":
                raise InjectedFaultError(
                    "injected transient corpus IO error on campaign "
                    f"{fault.spec_index}"
                )
            elif kind in ("registry_io", "journal_io"):
                raise OSError(
                    errno_module.ENOSPC, f"injected {kind} fault at {site}"
                )
            else:
                returned.append(fault)
        return returned

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
    def from_json(cls, text: str) -> "FaultPlan":
        data = json.loads(text)
        return cls(
            faults=tuple(FaultSpec(**fault) for fault in data["faults"]),
            ledger_dir=str(data["ledger_dir"]),
        )


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
                    site=SHARD_SITES.get(kind, ""),
                    spec_index=spec_index,
                    times=times,
                    hang_seconds=hang_seconds,
                )
            )
    return FaultPlan(faults=tuple(faults), ledger_dir=str(ledger_dir))


#: The process-wide service plan; None means every site is a no-op.
_SERVICE_PLAN: FaultPlan | None = None


def service_fault(site: str) -> Sequence[FaultSpec]:
    """The hook the control-plane sites call; no-op without a plan."""
    if _SERVICE_PLAN is None:
        return ()
    return _SERVICE_PLAN.fire(site)


def install_service_faults(plan: FaultPlan | None) -> None:
    """Install (or with None, clear) the process-wide service plan."""
    global _SERVICE_PLAN
    _SERVICE_PLAN = plan


def install_service_faults_from_env() -> FaultPlan | None:
    """Install the plan carried in :data:`SERVICE_FAULTS_ENV`, if any.

    ``repro serve`` calls this at start-up so the crash-anywhere
    harness can arm a *subprocess* server without any code path of its
    own. Returns the installed plan (None when the variable is unset).
    """
    text = os.environ.get(SERVICE_FAULTS_ENV)
    if not text:
        return None
    plan = FaultPlan.from_json(text)
    install_service_faults(plan)
    _log.warning(
        "service fault injection armed: %d fault(s), ledger %s",
        len(plan.faults),
        plan.ledger_dir,
    )
    return plan


__all__ = [
    "FAULT_KINDS",
    "SERVICE_FAULTS_ENV",
    "SERVICE_FAULT_KINDS",
    "SERVICE_FAULT_SITES",
    "SHARD_SITES",
    "FaultPlan",
    "FaultSpec",
    "InjectedFaultError",
    "WorkerCrashError",
    "install_service_faults",
    "install_service_faults_from_env",
    "seeded_plan",
    "service_fault",
]
