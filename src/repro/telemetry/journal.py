"""Append-only structured event journal (JSONL, one file per fleet run).

Every fleet run owns a directory — ``<telemetry root>/<run_id>/`` — with
one ``events.jsonl`` journal and one writer: the orchestrator. A pool
worker journals its shard in memory (a :class:`JournalWriter` without a
path) and returns the encoded lines with the shard's results; the
runtime appends them, in spec order, when it commits the shard's
campaigns. So the file is only ever extended, and it holds the events
of committed campaigns only.

Event schema (versioned, one JSON object per line):

* ``v`` — :data:`EVENT_SCHEMA_VERSION`.
* ``seq`` — per-writer monotonic sequence number (per shard, for a
  worker's lines).
* ``ts`` — wall-clock epoch seconds, monotonic *within a writer*
  (a backwards clock step never produces out-of-order timestamps in
  one writer's lines).
* ``event`` — event type name (``run_start``, ``campaign_end``, ...).
* ``run_id`` — the fleet run this event belongs to.
* ``worker`` — emitting writer (worker pid, or ``"orchestrator"``).

plus free payload fields; correlation travels as payload — campaign
events carry ``campaign`` (the spec index), finding events additionally
``finding`` (the per-campaign ordinal), so the chain
``run_id → campaign → finding`` is recoverable from any line.

Writes are flushed as they are made, so a killed run leaves every
completed line readable; readers skip a torn trailing line instead of
failing.
"""

from __future__ import annotations

import json
import logging
import time
from pathlib import Path

from repro.errors import JournalWriteError
from repro.faults import service_fault

_log = logging.getLogger(__name__)

#: Format version stamped on every journal event.
EVENT_SCHEMA_VERSION = 1

#: Keys the writer owns; payload fields may not collide with them.
_RESERVED_KEYS = frozenset({"v", "seq", "ts", "event", "run_id", "worker"})

#: Journal filename inside a run directory.
EVENTS_FILENAME = "events.jsonl"


class JournalWriter:
    """Append-only JSONL event writer; exactly one writer per file.

    The file is opened lazily on the first write and every write is
    flushed immediately — the journal is observability output, so a
    crash must never cost more than the line being written.

    With *path* None nothing touches a file: each event's line is kept
    in :attr:`lines`, encoded once, for the one writer of the run's file
    to :meth:`append` — how a pool worker journals its shard.
    """

    def __init__(
        self, path: str | Path | None, run_id: str, worker: str | int
    ) -> None:
        self.path = None if path is None else Path(path)
        self.run_id = run_id
        self.worker = worker
        #: The encoded events of a writer without a path.
        self.lines: list[str] = []
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
        if self.path is None:
            self.lines.append(json.dumps(record))
        else:
            self.append([json.dumps(record)])
        return record

    def append(self, lines: list[str]) -> None:
        """Append already-encoded events, one JSON object per line.

        :raises JournalWriteError: when the file cannot take them.
        """
        if self._closed:
            raise ValueError(f"journal writer for {self.path} is closed")
        try:
            service_fault("journal.emit")
        except OSError as error:
            raise JournalWriteError(self.path, error) from error
        try:
            if self._handle is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._handle = open(self.path, "a", encoding="utf-8")
            self._handle.write("".join(line + "\n" for line in lines))
            self._handle.flush()
        except OSError as error:
            # Typed: ENOSPC/EIO on the journal must surface as a clean
            # resumable abort, never a raw traceback.
            raise JournalWriteError(self.path, error) from error

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
    """Parse one journal file; [] when it does not exist.

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
