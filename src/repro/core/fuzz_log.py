"""Structured campaign log (the paper's "Logfile" output, Fig. 5)."""

from __future__ import annotations

import dataclasses
import enum


class LogLevel(enum.Enum):
    """Severity of a log entry."""

    INFO = "info"
    PACKET = "packet"
    WARNING = "warning"
    VULNERABILITY = "vulnerability"


@dataclasses.dataclass(frozen=True)
class LogEntry:
    """One structured log record."""

    sim_time: float
    level: LogLevel
    phase: str
    message: str
    detail: dict = dataclasses.field(default_factory=dict)

    def as_dict(self) -> dict:
        """JSON-ready rendering."""
        return {
            "t": round(self.sim_time, 6),
            "level": self.level.value,
            "phase": self.phase,
            "message": self.message,
            **({"detail": self.detail} if self.detail else {}),
        }


class FuzzLog:
    """Append-only campaign log with JSONL export."""

    def __init__(self) -> None:
        self.entries: list[LogEntry] = []

    def log(
        self,
        sim_time: float,
        level: LogLevel,
        phase: str,
        message: str,
        **detail,
    ) -> None:
        """Append one record."""
        self.entries.append(LogEntry(sim_time, level, phase, message, detail))

    def info(self, sim_time: float, phase: str, message: str, **detail) -> None:
        """Append an INFO record."""
        self.log(sim_time, LogLevel.INFO, phase, message, **detail)

    def vulnerability(self, sim_time: float, phase: str, message: str, **detail) -> None:
        """Append a VULNERABILITY record."""
        self.log(sim_time, LogLevel.VULNERABILITY, phase, message, **detail)

    def by_level(self, level: LogLevel) -> list[LogEntry]:
        """All records at *level*."""
        return [entry for entry in self.entries if entry.level is level]

    def to_jsonl(self) -> str:
        """Serialise the whole log as JSON Lines."""
        import json

        return "\n".join(json.dumps(entry.as_dict()) for entry in self.entries)

    def __len__(self) -> int:
        return len(self.entries)
