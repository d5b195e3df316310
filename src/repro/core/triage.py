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
  minimal reproducer with delta debugging (ddmin, Zeller & Hildebrandt,
  TSE 2002), typically isolating the state-transition packets plus the
  single malformed trigger. Every verdict equals a fresh
  :func:`replay` of the candidate, but is reached incrementally: the
  candidates of one pass share the prefix before the removed chunk, so
  one base target per pass is sent that prefix once and each candidate
  forks it (:meth:`repro.stack.device.VirtualDevice.fork`) and sends
  only the packets after the chunk; a prefix that crashes by itself
  answers the rest of the pass, and a memo answers candidates ddmin
  tries twice. It starts from the crashing outcome the caller already
  has and returns the minimal sequence's own outcome, so a caller never
  replays a sequence just to learn what it already knows.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Sequence

from repro.analysis.sniffer import Direction, TracedPacket
from repro.errors import TransportError
from repro.hci.packets import AclPacket
from repro.l2cap.packets import L2capPacket

#: A target factory returns a fresh (device, link) pair: one per replay,
#: one per ddmin pass (whose candidates run on forks of it).
TargetFactory = Callable[[], tuple[object, object]]

#: ACL connection handle replayed packets are sent on.
_HANDLE = 0x000B


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


def sent_packets(entries: Sequence[TracedPacket]) -> list[L2capPacket]:
    """Extract the fuzzer→target packets from a trace."""
    return [
        entry.packet for entry in entries if entry.direction is Direction.SENT
    ]


def _send(
    device, link, packets: Sequence[L2capPacket], start: int, handle: int
) -> ReplayOutcome | None:
    """Send *packets* over *link*; the crash outcome, or None if the target
    survives. *start* packets were sent before, so trigger indices count
    from it."""
    direct = not link.loss_rate and link.packet_remote is not None
    inbound = link.inbound
    for index, packet in enumerate(packets, start):
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
    return None


def _survived(length: int) -> ReplayOutcome:
    return ReplayOutcome(
        crashed=False,
        frames_replayed=length,
        trigger_index=None,
        error_message=None,
        crash_id=None,
    )


def replay(
    packets: Sequence[L2capPacket],
    target_factory: TargetFactory,
    handle: int = _HANDLE,
) -> ReplayOutcome:
    """Re-send *packets* in order against a fresh target.

    Responses are dropped — replay only cares whether the target
    survives the stimulus. Each packet takes the same route
    :meth:`repro.core.packet_queue.PacketQueue.send` would give it, so
    the outcome matches the bytes path packet for packet.
    """
    device, link = target_factory()
    crash = _send(device, link, packets, 0, handle)
    return crash if crash is not None else _survived(len(packets))


class _PassBase:
    """One ddmin pass's base target, sent its shared prefix lazily.

    Every candidate of a pass is ``current[:index] + current[resume:]``
    with a non-decreasing *index*, and a kept removal leaves
    ``current[:index]`` as it was; so the base only ever moves forward
    along the prefix, and each candidate costs a fork plus its suffix.
    """

    def __init__(self, target_factory: TargetFactory) -> None:
        self._factory = target_factory
        self._target = None
        self._sent = 0  # prefix packets the base has received
        self._crash: ReplayOutcome | None = None  # the prefix's own crash

    def attempt(
        self, current: list[L2capPacket], index: int, resume: int
    ) -> ReplayOutcome:
        """The outcome :func:`replay` gives ``current[:index] + current[resume:]``."""
        if self._target is None:
            self._target = self._factory()
        device, link = self._target
        if self._crash is None and index > self._sent:
            self._crash = _send(
                device, link, current[self._sent : index], self._sent, _HANDLE
            )
            self._sent = index
        if self._crash is not None:
            # The prefix crashed at k < index, and every candidate of this
            # pass from here on shares current[:k + 1]: a full replay
            # stops at the same packet.
            return self._crash
        suffix = current[resume:]
        if not suffix:
            return _survived(index)
        device, link = device.fork(link)
        crash = _send(device, link, suffix, index, _HANDLE)
        return crash if crash is not None else _survived(index + len(suffix))


def shrink_trigger(
    packets: Sequence[L2capPacket],
    target_factory: TargetFactory,
    outcome: ReplayOutcome,
    max_rounds: int = 16,
) -> tuple[list[L2capPacket], ReplayOutcome]:
    """Delta-debug crashing *packets* down to a minimal subsequence.

    Classic ddmin shape: try dropping chunks at decreasing granularity,
    keeping any removal that still reproduces the crash. Each attempt's
    verdict is the one :func:`replay` on a fresh target from
    *target_factory* would give, so the search is sound for
    deterministic triggers — but it is reached incrementally:

    * all candidates of one pass share the prefix before the removed
      chunk, so one base target per pass is sent that prefix once, and
      each candidate forks the base (``device.fork(link)``, so the
      factory's devices must offer it) and sends only what follows the
      chunk. A prefix that crashes by itself answers every later
      candidate of the pass, and a candidate with nothing after the
      chunk is the prefix itself: neither needs a fork;
    * ddmin retries some candidates; a memo keyed by the candidate's
      packet identities answers a repeat without any send.

    *outcome* is the crashing replay of *packets* the caller already
    holds. Returns the minimal sequence with its own crashing outcome
    (the last successful attempt's, or *outcome* when nothing could be
    dropped) — replaying the result again would only repeat it.
    """
    current = list(packets)
    tried: dict[tuple[int, ...], ReplayOutcome] = {}
    chunk = max(1, len(current) // 2)
    rounds = 0
    while chunk >= 1 and rounds < max_rounds:
        rounds += 1
        reduced_this_pass = False
        base = _PassBase(target_factory)
        index = 0
        while index < len(current):
            candidate = current[:index] + current[index + chunk :]
            attempt = None
            if candidate:
                key = tuple(map(id, candidate))
                attempt = tried.get(key)
                if attempt is None:
                    attempt = tried[key] = base.attempt(current, index, index + chunk)
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
