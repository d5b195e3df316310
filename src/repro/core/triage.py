"""Crash triage: replay and minimise a crashing campaign trace.

Paper §V limitation 2: "L2Fuzz can detect vulnerabilities by analyzing
the target's response packets; however, the root cause cannot be
determined immediately." With saved traces (``repro.analysis.traceio``)
and resettable virtual targets, we can do better than log hooking:

* :func:`replay` re-sends a trace's transmitted packets against a fresh
  target and reports whether (and where) the crash reproduces. Packets
  cross the link the way a campaign sends them (see
  :mod:`repro.core.packet_queue`): as objects over the direct hop when
  they are loopback-eligible, the link is loss-free and the device
  attached a packet handler, as raw ACL frames otherwise;
* :func:`shrink_trigger` shrinks a crashing packet sequence to a
  minimal reproducer with delta debugging (ddmin-style chunk removal),
  typically isolating the state-transition packets plus the single
  malformed trigger. It starts from the crashing outcome the caller
  already has and returns the minimal sequence's own outcome, so a
  caller never replays a sequence just to learn what it already knows;
  :func:`minimize_trigger` is the check-then-shrink convenience.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Sequence

from repro.analysis.sniffer import Direction, TracedPacket
from repro.errors import TransportError
from repro.hci.packets import AclPacket
from repro.l2cap.packets import L2capPacket

#: A target factory returns a fresh (device, link) pair per attempt.
TargetFactory = Callable[[], tuple[object, object]]


def profile_target_factory(
    profile, armed: bool = True, fuzz_target: str = "l2cap"
) -> TargetFactory:
    """Target factory for a testbed profile.

    Each call builds a fresh virtual device from *profile* and wires a
    zero-latency link to it — replay only cares whether the target
    survives the stimulus, so response latency is stripped for speed.
    *fuzz_target* names the protocol target whose campaign produced the
    sequence; the device is prepared the same way (protocol server
    mounted, pairing gate lifted) so the reproducer finds the same
    surface it crashed in the first place.
    """
    from repro.hci.transport import VirtualLink

    def factory() -> tuple[object, object]:
        device = profile.build(armed=armed, zero_latency=True)
        if fuzz_target != "l2cap":
            from repro.targets import make_target

            make_target(fuzz_target).prepare_device(device, armed=armed)
        link = VirtualLink(clock=device.clock)
        device.attach_to(link)
        return device, link

    return factory


@dataclasses.dataclass(frozen=True)
class ReplayOutcome:
    """Result of replaying a packet sequence."""

    crashed: bool
    frames_replayed: int
    trigger_index: int | None
    error_message: str | None
    crash_id: str | None

    @property
    def trigger_packet_index(self) -> int | None:
        """Index (into the replayed sequence) of the killing packet."""
        return self.trigger_index


def sent_packets(entries: Sequence[TracedPacket]) -> list[L2capPacket]:
    """Extract the fuzzer→target packets from a trace."""
    return [
        entry.packet for entry in entries if entry.direction is Direction.SENT
    ]


def replay(
    packets: Sequence[L2capPacket],
    target_factory: TargetFactory,
    handle: int = 0x000B,
) -> ReplayOutcome:
    """Re-send *packets* in order against a fresh target.

    Responses are dropped — replay only cares whether the target
    survives the stimulus. Each packet takes the same route
    :meth:`repro.core.packet_queue.PacketQueue.send` would give it, so
    the outcome matches the bytes path packet for packet.
    """
    device, link = target_factory()
    direct = not link.loss_rate and link.packet_remote is not None
    inbound = link.inbound
    for index, packet in enumerate(packets):
        try:
            if direct and (packet._loopback or packet.loopback_view() is not None):
                link.deliver(packet, handle)
            else:
                link.send_frame(
                    AclPacket(handle=handle, payload=packet.encode()).encode()
                )
            inbound.clear()
        except TransportError as error:
            crash = getattr(device, "crash", None)
            return ReplayOutcome(
                crashed=True,
                frames_replayed=index + 1,
                trigger_index=index,
                error_message=error.message,
                crash_id=crash.vulnerability_id if crash else None,
            )
    return ReplayOutcome(
        crashed=False,
        frames_replayed=len(packets),
        trigger_index=None,
        error_message=None,
        crash_id=None,
    )


def shrink_trigger(
    packets: Sequence[L2capPacket],
    target_factory: TargetFactory,
    outcome: ReplayOutcome,
    max_rounds: int = 16,
) -> tuple[list[L2capPacket], ReplayOutcome]:
    """Delta-debug crashing *packets* down to a minimal subsequence.

    Classic ddmin shape: try dropping chunks at decreasing granularity,
    keeping any removal that still reproduces the crash. Each attempt
    uses a fresh target from *target_factory*, so the search is sound
    for deterministic triggers.

    *outcome* is the crashing replay of *packets* the caller already
    holds. Returns the minimal sequence with its own crashing outcome
    (the last successful attempt's, or *outcome* when nothing could be
    dropped) — replaying the result again would only repeat it.
    """
    current = list(packets)
    chunk = max(1, len(current) // 2)
    rounds = 0
    while chunk >= 1 and rounds < max_rounds:
        rounds += 1
        reduced_this_pass = False
        index = 0
        while index < len(current):
            candidate = current[:index] + current[index + chunk :]
            attempt = replay(candidate, target_factory) if candidate else None
            if attempt is not None and attempt.crashed:
                current, outcome = candidate, attempt
                reduced_this_pass = True
                # stay at the same index: the next chunk shifted into place
            else:
                index += chunk
        if not reduced_this_pass:
            if chunk == 1:
                break
            chunk = max(1, chunk // 2)
    return current, outcome


def minimize_trigger(
    packets: Sequence[L2capPacket],
    target_factory: TargetFactory,
    max_rounds: int = 16,
) -> list[L2capPacket]:
    """Check that *packets* crash the target, then :func:`shrink_trigger` them.

    :raises ValueError: if the full sequence does not crash the target.
    """
    outcome = replay(packets, target_factory)
    if not outcome.crashed:
        raise ValueError("the supplied packet sequence does not crash the target")
    return shrink_trigger(packets, target_factory, outcome, max_rounds)[0]


def triage_report(
    minimal: Sequence[L2capPacket], outcome: ReplayOutcome
) -> str:
    """Human-readable root-cause summary of a minimised reproducer."""
    lines = [
        f"Minimal reproducer: {len(minimal)} packet(s)"
        f" -> {outcome.error_message or 'no crash'}"
        + (f" [{outcome.crash_id}]" if outcome.crash_id else ""),
    ]
    for index, packet in enumerate(minimal):
        marker = " <== trigger" if outcome.trigger_index == index else ""
        lines.append(f"  {index}: {packet.describe()}{marker}")
    return "\n".join(lines)
