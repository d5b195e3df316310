"""Exception hierarchy for the L2Fuzz reproduction.

The fuzzer's vulnerability-detection phase (paper §III.E) keys on
connection-level error messages: ``Connection Failed`` means the target's
Bluetooth service shut down (denial of service), while ``Connection
Aborted``, ``Connection Reset``, ``Connection Refused`` and ``Timeout``
indicate a crash on the target. We model the outcomes the virtual
stacks produce (all but ``Connection Aborted`` and ``Connection
Refused``) as an exception family so both the virtual transport and the
detection logic speak the same vocabulary.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class PacketError(ReproError):
    """Malformed or undecodable packet bytes."""


class PacketDecodeError(PacketError):
    """Raised when bytes cannot be parsed into an L2CAP/HCI packet."""


class PacketEncodeError(PacketError):
    """Raised when a packet object cannot be serialised."""


class ChannelError(ReproError):
    """Channel allocation or lookup failure inside a host stack."""


class ServiceError(ReproError):
    """Service (PSM) lookup or registration failure."""


class JournalWriteError(ReproError):
    """A durability write (telemetry journal append, registry manifest
    or write-ahead intent) failed at the OS level — ENOSPC, EIO, a
    read-only filesystem.

    Carries the path and errno so the service layer can mark the
    affected job ``aborted`` with a typed ``failure_reason`` instead of
    surfacing a raw traceback; the run's checkpoints stay on disk, so
    the job remains resumable once the disk recovers.
    """

    def __init__(self, path, error: OSError) -> None:
        self.path = str(path)
        self.errno = error.errno
        super().__init__(
            f"journal write failed for {self.path}: "
            f"{error.strerror or error} (errno {error.errno})"
        )


class TransportError(ReproError):
    """Base class for link-level failures observed by the fuzzer.

    Subclasses mirror the error messages listed in paper §III.E. The
    :attr:`message` class attribute carries the canonical error string the
    detection phase logs.
    """

    message = "Transport Error"


class ConnectionFailedError(TransportError):
    """The target Bluetooth service has been shut down (DoS indicator)."""

    message = "Connection Failed"


class ConnectionResetTargetError(TransportError):
    """The target reset the connection (crash indicator)."""

    message = "Connection Reset"


class TargetTimeoutError(TransportError):
    """The target stopped responding (crash indicator)."""

    message = "Timeout"


class TargetCrashedError(ReproError):
    """Raised internally by a virtual stack when an injected bug triggers.

    Carries the crash artefact so the testbed can surface a crash dump,
    mirroring the tombstone files of paper Fig. 12.
    """

    def __init__(self, crash):
        super().__init__(f"target crashed: {crash.summary}")
        self.crash = crash


class ScanError(ReproError):
    """Target-scanning phase failure (no reachable device or port)."""


class LegacyCorpusError(ReproError):
    """A corpus directory holds the legacy JSON-file layout and no
    database. Commit 2994a58 is the last that can import it."""
