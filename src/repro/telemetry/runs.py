"""Run introspection: list recorded runs, render live fleet status.

Everything here reads the on-disk telemetry artifacts only — manifest
and journal — so it works identically against a finished run, a run in
another process, and a half-written directory a killed run left
behind. ``repro runs tail`` is a poll loop over
:func:`run_status` / :func:`render_status`; the same functions are what
a future control-plane API would serve over HTTP.
"""

from __future__ import annotations

import dataclasses
import time
from pathlib import Path

from repro.telemetry.journal import EVENTS_FILENAME, read_events
from repro.telemetry.recorder import MANIFEST_FILENAME, read_manifest


@dataclasses.dataclass(frozen=True)
class RunInfo:
    """One row of ``repro runs list``."""

    run_id: str
    path: Path
    status: str
    started: str | None
    finished: str | None
    workers: int
    campaigns: int
    packets: int
    findings: int
    failure_reason: str | None = None
    resumed: bool = False
    fleet_signature: str | None = None


def load_manifest(
    run_dir: str | Path, attempts: int = 5, delay: float = 0.04
) -> dict | None:
    """:func:`read_manifest` with a mid-write retry guard.

    The recorder publishes ``run.json`` atomically, but not every
    writer of a run directory is the recorder (external tools, tests,
    NFS-style filesystems where rename atomicity is weaker), and the
    service polls manifests continuously while the orchestrator updates
    them. A manifest *file that exists but fails to parse* is treated
    as mid-write and re-read up to *attempts* times; a missing file is
    returned as None immediately (that is a real state, not a race).
    """
    path = Path(run_dir) / MANIFEST_FILENAME
    for attempt in range(attempts):
        manifest = read_manifest(run_dir)
        if manifest is not None:
            return manifest
        if not path.exists() or attempt == attempts - 1:
            return None
        time.sleep(delay)
    return None


def run_info(manifest: dict, path: Path) -> RunInfo:
    """Build one :class:`RunInfo` row from a parsed manifest."""
    return RunInfo(
        run_id=manifest.get("run_id", path.name),
        path=path,
        status=manifest.get("status", "unknown"),
        started=manifest.get("started"),
        finished=manifest.get("finished"),
        workers=manifest.get("workers", 0),
        campaigns=manifest.get("campaigns", 0),
        packets=manifest.get("packets", 0),
        findings=manifest.get("findings", 0),
        failure_reason=manifest.get("failure_reason"),
        resumed=bool(manifest.get("resumed", False)),
        fleet_signature=manifest.get("fleet_signature"),
    )


def run_info_dict(info: RunInfo) -> dict:
    """JSON-safe rendering of one run row.

    The single serializer behind ``repro runs list --json`` and the
    service's run-listing endpoint — scripting against either sees the
    same shape.
    """
    data = dataclasses.asdict(info)
    data["path"] = str(info.path)
    return data


def list_runs(root: str | Path) -> list[RunInfo]:
    """Every run directory under *root* (newest first, by run id)."""
    root = Path(root)
    if not root.is_dir():
        return []
    runs = []
    for entry in sorted(root.iterdir(), reverse=True):
        manifest = load_manifest(entry, attempts=2)
        if manifest is None:
            continue
        runs.append(run_info(manifest, entry))
    return runs


def resolve_run(root: str | Path, ref: str) -> Path:
    """Resolve a run reference: a run id under *root*, or a direct path.

    Tolerates a manifest that is briefly missing or mid-write: a run
    directory that exists but has no readable ``run.json`` yet (the
    recorder creates the directory before its first atomic manifest
    publish; non-atomic external writers have a wider window) is
    retried for a few polls before the reference is declared unknown.

    :raises FileNotFoundError: when neither resolves to a recorded run.
    """
    candidate = Path(root) / ref
    direct = Path(ref)
    for attempt in range(3):
        if (candidate / MANIFEST_FILENAME).exists():
            return candidate
        if (direct / MANIFEST_FILENAME).exists():
            return direct
        # Only a directory that exists without its manifest suggests a
        # write in progress; an absent directory is a genuine miss.
        if not candidate.is_dir() and not direct.is_dir():
            break
        if attempt < 2:
            time.sleep(0.05)
    raise FileNotFoundError(
        f"no recorded run {ref!r} under {root!r} (and {ref!r} is not a run "
        "directory)"
    )


@dataclasses.dataclass
class _WorkerRow:
    shards: int = 0
    campaigns: int = 0
    packets: int = 0
    findings: int = 0
    busy_seconds: float = 0.0
    last_event: str = "-"


def run_status(run_dir: str | Path) -> dict:
    """Aggregate a run's journal into one live status structure.

    Worker events reach the journal when their campaigns commit, so
    ``in_flight`` is read off the runtime's ``shard_dispatch`` events:
    the dispatched campaigns with no ``campaign_end`` (and not
    quarantined) yet.
    """
    run_dir = Path(run_dir)
    manifest = load_manifest(run_dir) or {}
    events = read_events(run_dir / EVENTS_FILENAME)
    workers: dict[str, _WorkerRow] = {}
    total_campaigns: int | None = None
    coverage: dict[str, set[str]] = {}
    state_spaces: dict[str, int] = {}
    open_campaigns: dict[int, str] = {}
    finished_campaigns = 0
    packets = 0
    findings = 0
    for event in events:
        kind = event.get("event")
        worker = str(event.get("worker", "?"))
        if worker not in ("orchestrator", "finalizer", "?"):
            row = workers.setdefault(worker, _WorkerRow())
            campaign = event.get("campaign")
            row.last_event = (
                f"{kind} c{campaign}" if campaign is not None else str(kind)
            )
        if kind == "run_start":
            total_campaigns = (total_campaigns or 0) + event.get("campaigns", 0)
        elif kind == "shard_dispatch":
            open_campaigns.update(zip(event["specs"], event["labels"]))
        elif kind == "shard_quarantined":
            open_campaigns.pop(event["specs"][0], None)
        elif kind == "campaign_end":
            open_campaigns.pop(event.get("campaign"), None)
            finished_campaigns += 1
            packets += event.get("packets_sent", 0)
            target = event.get("target", "?")
            coverage.setdefault(target, set()).update(
                event.get("covered_states", ())
            )
            if event.get("state_space"):
                state_spaces.setdefault(target, event["state_space"])
            if worker in workers:
                workers[worker].campaigns += 1
                workers[worker].packets += event.get("packets_sent", 0)
        elif kind == "finding":
            findings += 1
            if worker in workers:
                workers[worker].findings += 1
        elif kind == "shard_end":
            if worker in workers:
                workers[worker].shards += 1
                workers[worker].busy_seconds += event.get("wall_seconds", 0.0)
    return {
        "run_id": manifest.get("run_id", run_dir.name),
        "status": manifest.get("status", "unknown"),
        "failure_reason": manifest.get("failure_reason"),
        "resumed": bool(manifest.get("resumed", False)),
        "fleet_signature": manifest.get("fleet_signature"),
        "workers": workers,
        "total_campaigns": total_campaigns,
        "finished_campaigns": finished_campaigns,
        "in_flight": open_campaigns,
        "packets": packets,
        "findings": findings,
        "coverage": {
            target: sorted(states) for target, states in sorted(coverage.items())
        },
        "state_spaces": state_spaces,
        "events": len(events),
    }


def status_to_dict(status: dict) -> dict:
    """JSON-safe rendering of one :func:`run_status` structure.

    The worker rows are dataclasses (convenient for
    :func:`render_status`); this flattens them — the single serializer
    behind ``repro runs show --json`` and the service's status
    endpoint.
    """
    data = dict(status)
    data["workers"] = {
        worker: dataclasses.asdict(row)
        for worker, row in status["workers"].items()
    }
    data["in_flight"] = {
        str(campaign): label for campaign, label in status["in_flight"].items()
    }
    return data


def render_status(status: dict) -> str:
    """Render one :func:`run_status` structure as a fleet status table."""
    total = status["total_campaigns"]
    progress = (
        f"{status['finished_campaigns']}/{total}"
        if total is not None
        else str(status["finished_campaigns"])
    )
    resumed = " (resumed)" if status.get("resumed") else ""
    lines = [
        f"run {status['run_id']} [{status['status']}]{resumed}  "
        f"campaigns {progress}  packets {status['packets']}  "
        f"findings {status['findings']}  events {status['events']}",
    ]
    if status.get("failure_reason"):
        lines.append(f"failure: {status['failure_reason']}")
    lines += [
        "",
        "| worker | shards | campaigns | packets | findings | busy s | last event |",
        "|--------|--------|-----------|---------|----------|--------|------------|",
    ]
    if status["workers"]:
        for worker, row in sorted(status["workers"].items()):
            lines.append(
                f"| {worker} | {row.shards} | {row.campaigns} |"
                f" {row.packets} | {row.findings} |"
                f" {row.busy_seconds:.2f} | {row.last_event} |"
            )
    else:
        lines.append("| (no worker events yet) | - | - | - | - | - | - |")
    if status["in_flight"]:
        running = ", ".join(
            f"c{campaign} {label}"
            for campaign, label in sorted(status["in_flight"].items())
        )
        lines += ["", f"in flight: {running}"]
    if status["coverage"]:
        spaces = status["state_spaces"]
        merged = ", ".join(
            f"{target} {len(states)}"
            + (f"/{spaces[target]}" if target in spaces else "")
            for target, states in status["coverage"].items()
        )
        lines += ["", f"merged coverage: {merged}"]
    return "\n".join(lines)


def tail_run(
    run_dir: str | Path,
    write,
    interval: float = 0.5,
    once: bool = False,
    max_polls: int | None = None,
) -> str:
    """Follow a run until it leaves the ``running`` state.

    Renders the fleet status table through *write* on every poll (the
    CLI passes its console emitter). Returns the final status string.
    ``once`` renders a single frame; *max_polls* bounds the loop for
    tests and scripts.
    """
    polls = 0
    while True:
        status = run_status(run_dir)
        rendered = render_status(status)
        write(rendered)
        polls += 1
        if once or status["status"] != "running":
            return status["status"]
        if max_polls is not None and polls >= max_polls:
            return status["status"]
        write("")
        time.sleep(interval)
