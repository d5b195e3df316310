"""Virtual duplex link between a fuzzer and a target device.

This is the reproduction's stand-in for the Bluetooth dongle and the air
interface. It is a synchronous, deterministic simulation: the initiator
pushes one frame, the attached remote endpoint (a virtual device)
processes it immediately and answers.

Two ways across, with identical clock, counter and crash semantics:

* **direct hop** (:meth:`VirtualLink.deliver`) — an in-process sender
  hands over an L2CAP packet *object* that survives a decode round trip
  unchanged and gets the remote's answer back: packet objects, or ACL
  frames for responses that must cross as bytes. Nothing is serialised
  or queued. The packet queue sends every such packet this way when it
  does not fragment, the link is loss-free and the remote attached a
  packet handler — the default fuzzing session;
* **bytes path** (:meth:`VirtualLink.send_frame`) — raw HCI ACL frames
  both ways, for fragmented sends (``acl_mtu``), lossy links
  (``loss_rate``), bytes-only remotes, packets that would not survive
  the round trip, and raw-frame callers; responses queue on ``inbound``.
  Triage replay (:func:`repro.core.triage.replay`) picks per packet by
  the same rule as the packet queue.

The link also owns the campaign's *simulated clock*. Real Bluetooth
fuzzing throughput is dominated by radio turnaround and target processing
latency, so the clock charges a configurable cost per transmitted frame;
throughput and elapsed-time results (paper §IV.C pps, Table VI elapsed
times) are read off this clock rather than wall time.

When the remote endpoint crashes, the link transitions to ``down`` and
every later operation raises the :class:`~repro.errors.TransportError`
subclass the crash mapped to — exactly the error strings the paper's
detection phase matches on.
"""

from __future__ import annotations

import copy
import dataclasses
from collections import deque
from collections.abc import Callable

from repro.errors import (
    TargetCrashedError,
    TargetTimeoutError,
    TransportError,
)
from repro.l2cap.packets import L2capPacket


class SimClock:
    """Deterministic simulated clock, in seconds.

    :attr:`now` is a plain attribute (not a property): it is read two to
    three times per transmitted packet on the hot path. Time moves only
    through :meth:`advance` and the link's per-frame ``tx_cost`` charge.
    """

    def __init__(self, start: float = 0.0) -> None:
        #: Current simulated time in seconds.
        self.now = float(start)

    def fork(self) -> SimClock:
        """An independent clock reading the same time."""
        return SimClock(self.now)

    def advance(self, seconds: float) -> None:
        """Move the clock forward.

        :raises ValueError: if *seconds* is negative.
        """
        if seconds < 0:
            raise ValueError("cannot advance the clock backwards")
        self.now += seconds


@dataclasses.dataclass
class LinkStats:
    """Frame counters kept by the link."""

    frames_sent: int = 0
    frames_received: int = 0
    frames_dropped: int = 0


class VirtualLink:
    """Duplex frame pipe with crash propagation and a per-frame time cost.

    :param clock: simulated clock shared by the campaign (a fresh one is
        created when omitted).
    :param tx_cost: seconds charged per transmitted frame — models radio
        turnaround plus target processing; drives pps and elapsed-time
        results. Must not be negative: the clock never runs backwards.
    :param loss_rate: probability of silently dropping an outbound frame
        (failure-injection hook; default 0 keeps runs deterministic).
    :param rng: random source used only when *loss_rate* > 0.
    """

    def __init__(
        self,
        clock: SimClock | None = None,
        tx_cost: float = 0.0019,
        loss_rate: float = 0.0,
        rng=None,
    ) -> None:
        if not 0.0 <= loss_rate <= 1.0:
            raise ValueError("loss_rate must be within [0, 1]")
        if tx_cost < 0:
            raise ValueError("tx_cost must not be negative")
        self.clock = clock if clock is not None else SimClock()
        self.tx_cost = tx_cost
        self.loss_rate = loss_rate
        self._rng = rng
        self._remote: Callable[[bytes], list[bytes]] | None = None
        #: The remote's packet handler for the direct hop (None for a
        #: bytes-only remote).
        self.packet_remote: Callable[[L2capPacket, int], list] | None = None
        #: Responses waiting to be received, oldest first: raw ACL frames
        #: from the bytes path (the direct hop returns its responses).
        self.inbound: deque = deque()
        self._down_error: type[TransportError] | None = None
        self.stats = LinkStats()

    def fork(self, clock: SimClock) -> VirtualLink:
        """An independent copy of this link, running on *clock*.

        Queued responses, counters, the down state and the drop RNG's
        position are copied; the copy has no remote attached (the forked
        endpoint attaches itself, see
        :meth:`repro.stack.device.VirtualDevice.fork`).
        """
        clone = VirtualLink.__new__(VirtualLink)
        clone.clock = clock
        clone.tx_cost = self.tx_cost
        clone.loss_rate = self.loss_rate
        clone._rng = copy.copy(self._rng)
        clone._remote = None
        clone.packet_remote = None
        clone.inbound = self.inbound.copy()
        clone._down_error = self._down_error
        stats = self.stats
        clone.stats = LinkStats(
            stats.frames_sent, stats.frames_received, stats.frames_dropped
        )
        return clone

    # -- wiring ---------------------------------------------------------------

    def attach(
        self,
        handler: Callable[[bytes], list[bytes]],
        packet_handler: Callable[[L2capPacket, int], list] | None = None,
    ) -> None:
        """Register the remote endpoint.

        *handler* takes one raw ACL frame and returns the raw ACL
        response frames the remote produces. *packet_handler*, when
        given, enables the direct hop: it is called as
        ``packet_handler(packet, handle)`` with a loopback-eligible L2CAP
        packet and returns the responses :meth:`deliver` hands back
        (packet objects, or ACL frames for those that must cross as bytes).
        """
        self._remote = handler
        self.packet_remote = packet_handler

    @property
    def down_error(self) -> type[TransportError] | None:
        """The error class the link failed with, if any."""
        return self._down_error

    def restore(self) -> None:
        """Bring a downed link back up (device reset in the testbed)."""
        self._down_error = None
        self.inbound.clear()

    # -- data path ------------------------------------------------------------

    def send_frame(self, frame: bytes) -> None:
        """Transmit one raw ACL frame to the remote endpoint (bytes path).

        Charges :attr:`tx_cost` on the clock, then delivers synchronously.
        Responses the remote produces are queued on :attr:`inbound`.

        :raises TransportError: (a subclass) once the link is down.
        """
        self.clock.now += self.tx_cost
        if self._down_error is not None:
            raise self._down_error()
        if self._remote is None:
            raise TargetTimeoutError("no remote endpoint attached")
        if self.loss_rate > 0.0 and self._rng is not None:
            if self._rng.random() < self.loss_rate:
                self.stats.frames_dropped += 1
                return
        self.stats.frames_sent += 1
        try:
            responses = self._remote(frame)
        except TargetCrashedError as crash_exc:
            raise self._crashed(crash_exc) from crash_exc
        if responses:
            self.inbound.extend(responses)
            self.stats.frames_received += len(responses)

    def deliver(self, packet: L2capPacket, handle: int) -> list:
        """Hand one L2CAP packet object to the remote; return its answer.

        The direct hop: same clock charge, counters and crash mapping as
        :meth:`send_frame`, minus the serialisation and the queue. The
        remote's packet handler receives *packet* itself, and its answer
        comes back to the caller. Callers guarantee the packet is its own
        :meth:`~repro.l2cap.packets.L2capPacket.loopback_view`, the
        remote attached a packet handler, and the link is loss-free
        (lossy links draw their drop decisions on the bytes path).

        :raises TransportError: (a subclass) once the link is down.
        """
        self.clock.now += self.tx_cost
        if self._down_error is not None:
            raise self._down_error()
        stats = self.stats
        stats.frames_sent += 1
        try:
            responses = self.packet_remote(packet, handle)
        except TargetCrashedError as crash_exc:
            raise self._crashed(crash_exc) from crash_exc
        stats.frames_received += len(responses)
        return responses

    def _crashed(self, crash_exc: TargetCrashedError) -> TransportError:
        """Take the link down with the crash's transport error."""
        self._down_error = crash_exc.crash.transport_error
        return self._down_error()
