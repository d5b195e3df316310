"""Common scaffolding for the baseline Bluetooth fuzzers (paper §IV, §VI).

The paper compares L2Fuzz with three tools — Defensics, BFuzz and the
Bluetooth Stack Smasher — by running each against the same target and
measuring mutation efficiency and state coverage from the packet trace.
The tools themselves are closed or ancient, so we re-implement their
*documented mutation strategies*:

* BSS "simply mutates only one field of a packet";
* BFuzz "mutates packets that have previously been determined to be
  vulnerable; however, because it mutates almost every field, it is
  easily rejected";
* Defensics is a conformance-style suite where "most of the test packets
  are normal packets" and "only tests one packet per state".

Each baseline drives the same :class:`~repro.core.packet_queue.PacketQueue`
as L2Fuzz, so the sniffer trace and metrics are directly comparable.
"""

from __future__ import annotations

import abc
import random

from repro.core.packet_queue import PacketQueue
from repro.errors import TransportError
from repro.l2cap.packets import L2capPacket


class BaselineFuzzer(abc.ABC):
    """One comparison fuzzer.

    :param queue: packet queue to the target (owns the trace).
    :param seed: RNG seed for deterministic runs.
    """

    #: Human-readable tool name.
    name: str = "baseline"
    #: Transmission throughput the paper measured for this tool (§IV.C).
    pps: float = 1.0

    def __init__(self, queue: PacketQueue, seed: int = 0x1202) -> None:
        self.queue = queue
        self.rng = random.Random(seed)
        self.stopped_by_error: TransportError | None = None

    def run(self, max_packets: int) -> None:
        """Transmit until *max_packets* have been sent (or the target dies)."""
        try:
            while self.queue.sniffer.transmitted_count() < max_packets:
                self.run_cycle(max_packets)
        except TransportError as error:
            self.stopped_by_error = error

    @abc.abstractmethod
    def run_cycle(self, max_packets: int) -> None:
        """Run one test cycle (a tool-specific packet sequence)."""

    # -- shared helpers -----------------------------------------------------------

    def _budget_left(self, max_packets: int) -> int:
        return max_packets - self.queue.sniffer.transmitted_count()

    def _send(self, packet: L2capPacket) -> list[L2capPacket]:
        """Send and collect responses (baselines all poll synchronously)."""
        return self.queue.send(packet)
