"""Append-only structured event journal (JSONL, one file per fleet run).

Every fleet run owns a directory — ``<telemetry root>/<run_id>/`` — with
one merged ``events.jsonl`` journal. During the run, each pool worker
writes its own *segment* file under ``segments/`` (one writer per file,
so no cross-process locking or new IPC is needed — the same flow the
compact summary blobs use); segments are folded into the merged journal
at run boundaries and on close.

Event schema (versioned, one JSON object per line):

* ``v`` — :data:`EVENT_SCHEMA_VERSION`.
* ``seq`` — per-writer monotonic sequence number.
* ``ts`` — wall-clock epoch seconds, monotonic *within a writer*
  (a backwards clock step never produces out-of-order timestamps in
  one segment).
* ``event`` — event type name (``run_start``, ``campaign_end``, ...).
* ``run_id`` — the fleet run this event belongs to.
* ``worker`` — emitting writer (worker pid, or ``"orchestrator"``).

plus free payload fields; correlation travels as payload — campaign
events carry ``campaign`` (the spec index), finding events additionally
``finding`` (the per-campaign ordinal), so the chain
``run_id → campaign → finding`` is recoverable from any line.

Writers flush per event, so a killed run leaves every completed line
readable; readers skip a torn trailing line instead of failing.
"""

from __future__ import annotations

import json
import logging
import os
import time
from pathlib import Path

from repro.errors import JournalWriteError
from repro.faults import service_fault

_log = logging.getLogger(__name__)

#: Format version stamped on every journal event.
EVENT_SCHEMA_VERSION = 1

#: Keys the writer owns; payload fields may not collide with them.
_RESERVED_KEYS = frozenset({"v", "seq", "ts", "event", "run_id", "worker"})

#: Merged journal filename inside a run directory.
EVENTS_FILENAME = "events.jsonl"

#: Per-writer segment directory inside a run directory.
SEGMENTS_DIRNAME = "segments"


class JournalWriter:
    """Append-only JSONL event writer; exactly one writer per file.

    The file is opened lazily on the first :meth:`emit` and every event
    is flushed immediately — the journal is observability output, so a
    crash must never cost more than the line being written.
    """

    def __init__(self, path: str | Path, run_id: str, worker: str | int) -> None:
        self.path = Path(path)
        self.run_id = run_id
        self.worker = worker
        self._seq = 0
        self._last_ts = 0.0
        self._handle = None
        self._closed = False

    def emit(self, event: str, **payload) -> dict:
        """Append one event; returns the record written."""
        if self._closed:
            raise ValueError(f"journal writer for {self.path} is closed")
        collisions = _RESERVED_KEYS.intersection(payload)
        if collisions:
            raise ValueError(
                f"payload keys collide with journal envelope: {sorted(collisions)}"
            )
        ts = max(time.time(), self._last_ts)
        self._last_ts = ts
        record = {
            "v": EVENT_SCHEMA_VERSION,
            "seq": self._seq,
            "ts": round(ts, 6),
            "event": event,
            "run_id": self.run_id,
            "worker": self.worker,
            **payload,
        }
        self._seq += 1
        try:
            service_fault("journal.emit")
        except OSError as error:
            raise JournalWriteError(self.path, error) from error
        try:
            if self._handle is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._handle = open(self.path, "a", encoding="utf-8")
            self._handle.write(json.dumps(record) + "\n")
            self._handle.flush()
        except OSError as error:
            # Typed: ENOSPC/EIO on the journal must surface as a clean
            # resumable abort, never a raw traceback in a worker.
            raise JournalWriteError(self.path, error) from error
        return record

    def close(self) -> None:
        """Flush and release the file handle (idempotent)."""
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError as error:
                _log.warning("journal %s close failed: %s", self.path, error)
            self._handle = None
        self._closed = True

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def shard_journal(root: str | Path, run_id: str, shard_key: int) -> JournalWriter:
    """Open the segment writer for one worker shard.

    Segment names carry the worker pid and the shard's first spec index,
    which is unique across one run's shards — so concurrent workers (and
    one worker running many shards) never share a file.
    """
    path = (
        Path(root)
        / run_id
        / SEGMENTS_DIRNAME
        / f"worker-{os.getpid()}-shard-{shard_key:06d}.jsonl"
    )
    return JournalWriter(path, run_id=run_id, worker=os.getpid())


def _parse_lines(raw: str, source: str) -> list[dict]:
    """Parse JSONL, skipping blank lines and a torn (killed-run) tail.

    The intact journal — every line one JSON value, as
    :class:`JournalWriter` writes it — is decoded in one pass as a
    single JSON array: the decoder then shares each key string across
    all events instead of allocating it again per line, which shrinks a
    retained journal by over a third. Anything else (a torn or corrupt line,
    a line holding more than one value) falls back to the line-by-line
    loop, whose skipping and error positions are the contract.
    """
    lines = raw.split("\n")
    kept = [line for line in lines if line.strip()]
    try:
        events = json.loads("[" + ",".join(kept) + "]")
    except json.JSONDecodeError:
        events = None
    if events is not None and len(events) == len(kept):
        return events
    events = []
    for position, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError:
            if position >= len(lines) - 2:
                # Torn trailing line: the writer died mid-write. The
                # journal up to here is intact; keep it.
                _log.debug("skipping torn trailing line in %s", source)
                continue
            raise ValueError(
                f"corrupt journal line {position + 1} in {source}"
            ) from None
    return events


def read_events(path: str | Path) -> list[dict]:
    """Parse one journal (or segment) file; [] when it does not exist.

    Equal string values (event names, the run id, log levels, phases
    and messages) come back as one shared object each, as keys already
    do (see :func:`_parse_lines`), so a journal held in memory is about
    a quarter smaller for about a fifth more parse time. The perfbench
    fleet workload holds every sweep's journal; no caller in the
    package keeps one.
    """
    path = Path(path)
    if not path.exists():
        return []
    return _share_strings(_parse_lines(path.read_text(encoding="utf-8"), str(path)))


def _share_strings(events: list[dict]) -> list[dict]:
    """Make equal string values of *events* (and of the dicts they
    hold) one object each; returns *events*."""
    shared: dict[str, str] = {}
    share = shared.setdefault
    for event in events:
        for key, value in event.items():
            if value.__class__ is str:
                event[key] = share(value, value)
            elif value.__class__ is dict:
                for inner_key, inner in value.items():
                    if inner.__class__ is str:
                        value[inner_key] = share(inner, inner)
    return events


def _segment_sort_key(item: tuple) -> tuple:
    """Order ``(event, segment name, ...)`` items across writers."""
    event, name = item[0], item[1]
    return (event.get("ts", 0.0), name, event.get("seq", 0))


def merge_segments(run_dir: str | Path) -> list[dict]:
    """Fold every segment file into the run's merged ``events.jsonl``.

    Segment events are appended to the merged journal ordered by
    ``(ts, segment name, seq)`` — timestamps order across writers,
    sequence numbers keep each writer's own order exact even under
    clock jitter — and the segment files are removed. Returns the
    events that were appended (already parsed, for metric folds).

    Append-only by design: the merged journal is only ever extended, so
    a live reader (``repro runs tail``) never sees it rewritten.
    """
    run_dir = Path(run_dir)
    segments_dir = run_dir / SEGMENTS_DIRNAME
    if not segments_dir.is_dir():
        return []
    ordered: list[tuple[dict, str, str]] = []
    segment_paths = sorted(segments_dir.glob("*.jsonl"))
    for path in segment_paths:
        raw = path.read_text(encoding="utf-8")
        # Each line is already json.dumps of its event, so it is copied,
        # not re-encoded. The only line _parse_lines drops is a torn
        # last one, which zip() drops from the lines too.
        lines = [line for line in raw.split("\n") if line.strip()]
        for event, line in zip(_parse_lines(raw, str(path)), lines):
            ordered.append((event, path.name, line))
    ordered.sort(key=_segment_sort_key)
    events = [event for event, _, _ in ordered]
    if events:
        with open(run_dir / EVENTS_FILENAME, "a", encoding="utf-8") as handle:
            handle.write("".join(line + "\n" for _, _, line in ordered))
    for path in segment_paths:
        path.unlink()
    _log.debug(
        "merged %d event(s) from %d segment(s) into %s",
        len(events),
        len(segment_paths),
        run_dir / EVENTS_FILENAME,
    )
    return events


def scan_events(run_dir: str | Path) -> list[dict]:
    """All events currently readable for a run: merged journal + live segments.

    This is the live view ``repro runs tail`` polls — segment events are
    included *without* merging them, ordered after the merged journal by
    the same ``(ts, segment, seq)`` key.
    """
    run_dir = Path(run_dir)
    events = read_events(run_dir / EVENTS_FILENAME)
    segments_dir = run_dir / SEGMENTS_DIRNAME
    if segments_dir.is_dir():
        live: list[tuple[dict, str]] = []
        for path in sorted(segments_dir.glob("*.jsonl")):
            for event in read_events(path):
                live.append((event, path.name))
        live.sort(key=_segment_sort_key)
        events.extend(event for event, _ in live)
    return events
