"""Phase 4 — vulnerability detecting (paper §III.E).

After malformed packets go out, L2Fuzz checks three signals:

1. **error messages** — a transport-level error on the socket. The paper
   maps ``Connection Failed`` to a denial of service (the Bluetooth
   service shut down) and ``Connection Aborted`` / ``Connection Reset`` /
   ``Connection Refused`` / ``Timeout`` to a target crash;
2. **ping test** — an L2CAP Echo Request; no answer means the target's
   L2CAP layer is gone;
3. **crash dumps** — any dump artefact the target left (tombstones on
   Android, kernel oopses on Linux), fetched through a side channel.
"""

from __future__ import annotations

import dataclasses
import enum
from collections.abc import Callable

from repro.core.packet_queue import PacketQueue
from repro.errors import ConnectionFailedError, TransportError
from repro.l2cap.packets import CommandCode, signal_template


class VulnerabilityClass(enum.Enum):
    """How the paper's Table VI labels a finding."""

    DOS = "DoS"
    CRASH = "Crash"


#: Paper §III.E: Connection Failed ⇒ service shut down ⇒ DoS; every other
#: connection error indicates a crash.
def classify_error(error: TransportError) -> VulnerabilityClass:
    """Map a transport error to the paper's vulnerability class."""
    if isinstance(error, ConnectionFailedError):
        return VulnerabilityClass.DOS
    return VulnerabilityClass.CRASH


def finding_key(
    vendor: str,
    vulnerability_class: VulnerabilityClass | str,
    trigger: str,
    target: str = "l2cap",
) -> tuple[str, str, str, str]:
    """Canonical deduplication key of a finding.

    Two findings are the same vulnerability when they share ``(fuzz
    target, vendor, vulnerability class, trigger)`` — the same malformed
    packet knocking over the same protocol layer of the same vendor
    stack the same way, regardless of which device, strategy or campaign
    hit it first. This is the single key used by the fleet merge, the
    persistent finding database, and any other cross-campaign
    deduplication; *trigger* may be a human-readable packet rendering or
    a content hash of a minimised reproducer, as long as callers are
    consistent about which they bucket by. *target* is the registry name
    of the protocol under test, so an RFCOMM crash and an L2CAP crash
    with a coincidentally identical trigger rendering never collapse
    into one bucket.
    """
    if isinstance(vulnerability_class, VulnerabilityClass):
        vulnerability_class = vulnerability_class.value
    return (target, vendor, vulnerability_class, trigger)


@dataclasses.dataclass(frozen=True)
class Finding:
    """One detected vulnerability.

    :param vulnerability_class: DoS or crash.
    :param error_message: the canonical socket error string observed.
    :param state: name of the state plan entry under test.
    :param trigger: human-readable rendering of the suspected trigger
        packet (the last malformed packet before the error).
    :param sim_time: simulated campaign time at detection.
    :param ping_failed: whether the confirming ping test failed.
    :param crash_dump: crash-dump text recovered from the target, if any.
    :param target: registry name of the fuzz target (protocol) under
        test when the finding was made.
    :param sent_index: number of fuzzer→target packets on the wire at
        detection — the exact reproducer-prefix length, trigger
        included. Corpus write-back cuts the stored reproducer here, so
        packets transmitted after the detection but at the same
        simulated tick (liveness probes, auto-reset traffic) never leak
        in. ``None`` on findings recorded before this field existed.
    """

    vulnerability_class: VulnerabilityClass
    error_message: str
    state: str
    trigger: str
    sim_time: float
    ping_failed: bool
    crash_dump: str | None = None
    target: str = "l2cap"
    sent_index: int | None = None

    def key(self, vendor: str) -> tuple[str, str, str, str]:
        """This finding's :func:`finding_key` under *vendor*'s stack."""
        return finding_key(
            vendor, self.vulnerability_class, self.trigger, self.target
        )


#: The two liveness probes, from the signalling template table: an Echo
#: Request carrying the caller's payload and an Information Request for
#: the extended features (the spec default info type).
_ECHO_PROBE = signal_template(CommandCode.ECHO_REQ, tail=None)
_INFORMATION_PROBE = signal_template(CommandCode.INFORMATION_REQ)


class VulnerabilityDetector:
    """Phase 4 runner.

    :param queue: packet queue to the target.
    :param dump_probe: optional side channel returning the target's crash
        dumps (adb pull of tombstones in the paper's setup); None means
        dumps cannot be inspected.
    """

    def __init__(
        self,
        queue: PacketQueue,
        dump_probe: Callable[[], list[str]] | None = None,
    ) -> None:
        self.queue = queue
        self.dump_probe = dump_probe

    def ping_test(self, payload: bytes = b"l2fuzz-ping") -> bool:
        """Probe target liveness with an Echo plus an Information Request.

        Both are valid connection-scoped commands every state accepts;
        the pair distinguishes "L2CAP still alive" from "echo handler
        alone still alive". True when the target answered either probe.

        Both probes come from the signalling template table of
        :mod:`repro.l2cap.packets`, like the engine's answers to them,
        so a ping test constructs no packet the slow way; the probes are
        the frames :func:`~repro.l2cap.packets.echo_request` and
        :func:`~repro.l2cap.packets.information_request` would build.
        """
        # Identifier draw order matches the historical inline builds: the
        # second probe's identifier is only taken once the first exchange
        # survived (auto-reset campaigns see the same ID stream).
        queue = self.queue
        try:
            responses = queue.send(
                _ECHO_PROBE.build(queue.take_identifier(), payload)
            ) + queue.send(_INFORMATION_PROBE.build(queue.take_identifier()))
        except TransportError:
            return False
        return any(
            response.code in (CommandCode.ECHO_RSP, CommandCode.INFORMATION_RSP)
            for response in responses
        )

    def fetch_crash_dump(self) -> str | None:
        """Pull the most recent crash dump, when a side channel exists."""
        if self.dump_probe is None:
            return None
        dumps = self.dump_probe()
        if not dumps:
            return None
        return dumps[-1]

    def diagnose(
        self,
        error: TransportError,
        state_name: str,
        trigger_description: str,
        target: str = "l2cap",
        sent_index: int | None = None,
    ) -> Finding:
        """Build a finding for a transport error seen while fuzzing.

        Runs the confirming ping test and the crash-dump check before
        classifying, mirroring the §III.E sequence. *target* stamps the
        protocol under test into the finding's dedup key; *sent_index*
        must be captured **before** this call (the confirming ping puts
        more packets on the wire) and pins the reproducer-prefix cut.
        """
        ping_ok = self.ping_test()
        return Finding(
            vulnerability_class=classify_error(error),
            error_message=error.message,
            state=state_name,
            trigger=trigger_description,
            sim_time=self.queue.clock.now,
            ping_failed=not ping_ok,
            crash_dump=self.fetch_crash_dump(),
            target=target,
            sent_index=sent_index,
        )
