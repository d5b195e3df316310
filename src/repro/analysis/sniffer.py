"""Packet-trace capture and classification (the Wireshark substitute).

The paper's two evaluation metrics are computed purely from a packet
trace (§IV.A): malformed and rejected packets were "captured and analyzed
using Wireshark". :class:`PacketSniffer` plays that role: it observes
every frame in both directions and classifies

* transmitted packets as **malformed** — any deviation from a spec-clean
  encoding, including channel-endpoint values that ignore the dynamic
  allocation *observed on the wire* (the sniffer tracks which CIDs the
  target actually handed out, exactly as a Wireshark analyst would), and
* received packets as **rejections** — Command Reject responses plus
  refusal results in response commands.

Analysis is **streaming**: every observation is fed incrementally into a
state-coverage analyzer and into cumulative MP/PR sample series, so the
paper's metrics never require replaying the whole trace. What the
sniffer keeps per packet is chosen by ``retain_trace``, at one of three
levels:

* ``False`` — **streaming**: counters, the analyzer and the sampled
  curves only, so a million-packet campaign runs in bounded memory
  (fleet workers without a corpus);
* ``"sent"`` (:data:`SENT_ONLY`) — the **sent capture**: the transmitted
  packets in send order and nothing per received packet, which is all
  that corpus write-back replays (fleet workers with a corpus);
* ``True`` — the **full trace**: one :class:`TracedPacket` per packet in
  either direction, for trace export, triage and offline analysis.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from repro.l2cap.constants import (
    CommandCode,
    ConfigResult,
    ConnectionResult,
    InfoResult,
    MoveResult,
)
from repro.l2cap.packets import L2capPacket
from repro.l2cap.validation import is_malformed


class Direction(enum.Enum):
    """Which way a frame travelled, from the fuzzer's vantage point."""

    SENT = "sent"
    RECEIVED = "received"


class TracedPacket(NamedTuple):
    """One classified trace entry (immutable).

    A named tuple rather than a frozen dataclass: a retained-trace
    campaign builds one per packet in each direction, and the sniffer
    builds them with one ``tuple.__new__`` call (:data:`_entry`) instead
    of an ``__init__`` that writes five frozen slots.
    """

    sim_time: float
    direction: Direction
    packet: L2capPacket
    malformed: bool
    rejection: bool


#: ``TracedPacket(*fields)`` without the named-tuple constructor's
#: argument handling: ``_entry(TracedPacket, (sim_time, ...))``.
_entry = tuple.__new__
_SENT = Direction.SENT
_RECEIVED = Direction.RECEIVED

#: ``retain_trace`` level that keeps the sent packets and nothing else.
SENT_ONLY = "sent"


#: Result values in a Connection/Create-Channel Response that constitute a
#: refusal of the request.
_CONNECTION_REFUSALS = frozenset(
    {
        ConnectionResult.REFUSED_PSM_NOT_SUPPORTED,
        ConnectionResult.REFUSED_SECURITY_BLOCK,
        ConnectionResult.REFUSED_NO_RESOURCES,
        ConnectionResult.REFUSED_CONTROLLER_ID_NOT_SUPPORTED,
        ConnectionResult.REFUSED_INVALID_SCID,
        ConnectionResult.REFUSED_SCID_ALREADY_ALLOCATED,
    }
)

_CONFIG_REFUSALS = frozenset(
    {
        ConfigResult.UNACCEPTABLE_PARAMETERS,
        ConfigResult.REJECTED,
        ConfigResult.UNKNOWN_OPTIONS,
        ConfigResult.FLOW_SPEC_REJECTED,
    }
)

_MOVE_REFUSALS = frozenset(
    {
        MoveResult.REFUSED_CONTROLLER_ID_NOT_SUPPORTED,
        MoveResult.REFUSED_NEW_CONTROLLER_ID_IS_SAME,
        MoveResult.REFUSED_CONFIGURATION_NOT_SUPPORTED,
        MoveResult.REFUSED_COLLISION,
        MoveResult.REFUSED_NOT_ALLOWED,
    }
)


#: Response commands judged by membership of their result in a refusal
#: set, keyed by command-code value (one dict hit per received packet).
_RESULT_REFUSALS: dict[int, frozenset] = {
    int(CommandCode.CONNECTION_RSP): _CONNECTION_REFUSALS,
    int(CommandCode.CREATE_CHANNEL_RSP): _CONNECTION_REFUSALS,
    int(CommandCode.CONFIGURATION_RSP): _CONFIG_REFUSALS,
    int(CommandCode.MOVE_CHANNEL_RSP): _MOVE_REFUSALS,
}

#: Credit-based responses: any non-zero result refuses the operation.
_NONZERO_RESULT_REJECTS = frozenset(
    {
        int(CommandCode.LE_CREDIT_BASED_CONNECTION_RSP),
        int(CommandCode.CREDIT_BASED_CONNECTION_RSP),
        int(CommandCode.CREDIT_BASED_RECONFIGURE_RSP),
    }
)


#: Received commands that allocate or release a target CID.
_CID_LEARNING_CODES = frozenset(
    {
        int(CommandCode.CONNECTION_RSP),
        int(CommandCode.CREATE_CHANNEL_RSP),
        int(CommandCode.DISCONNECTION_RSP),
        int(CommandCode.DISCONNECTION_REQ),
    }
)


def is_rejection(packet: L2capPacket) -> bool:
    """Classify a received packet as a rejection (PR-Ratio numerator)."""
    code = packet.code
    if code == CommandCode.COMMAND_REJECT:
        return True
    refusals = _RESULT_REFUSALS.get(code)
    if refusals is not None:
        return packet.fields.get("result") in refusals
    if code == CommandCode.INFORMATION_RSP:
        return packet.fields.get("result") == InfoResult.NOT_SUPPORTED
    if code in _NONZERO_RESULT_REJECTS:
        return bool(packet.fields.get("result"))
    return False


_StateCoverageAnalyzer = None


def _analyzer_cls():
    """Resolve the streaming coverage analyzer lazily.

    ``state_coverage`` imports this module for :class:`Direction`, so the
    reverse import happens at first sniffer construction instead of at
    module load to keep the import graph acyclic.
    """
    global _StateCoverageAnalyzer
    if _StateCoverageAnalyzer is None:
        from repro.analysis.state_coverage import StateCoverageAnalyzer

        _StateCoverageAnalyzer = StateCoverageAnalyzer
    return _StateCoverageAnalyzer


class PacketSniffer:
    """Observes both directions of a fuzzing session, streaming analysis.

    The sniffer maintains the set of dynamic CIDs the *target* has handed
    out, learned from successful Connection / Create-Channel responses
    and pruned on disconnections — the wire-visible ground truth against
    which "ignores dynamic allocation" is judged.

    Every observation is additionally pushed through a streaming
    :class:`~repro.analysis.state_coverage.StateCoverageAnalyzer` and
    into cumulative MP/PR sample series, so coverage and the Fig. 8/9
    curves are available without replaying the trace.

    :param retain_trace: what to keep per packet. True (the default)
        keeps every :class:`TracedPacket` in :attr:`trace`, the
        Wireshark-style capture for offline analysis. :data:`SENT_ONLY`
        keeps only the transmitted packets, in send order, for
        :meth:`sent_packets` (corpus write-back); :attr:`trace` stays
        empty and the full-trace views refuse. False bounds memory for
        fleet-scale campaigns: only running counters, the streaming
        analyzer and the sampled curves are kept.
    :param sample_every: granularity of the streamed Fig. 8/9 series
        (one point per this many packets in the matching direction).
    """

    def __init__(
        self, retain_trace: bool | str = True, sample_every: int = 1000
    ) -> None:
        if not (isinstance(retain_trace, bool) or retain_trace == SENT_ONLY):
            raise ValueError(
                f"retain_trace must be False, {SENT_ONLY!r} or True, "
                f"not {retain_trace!r}"
            )
        self.retain_trace = retain_trace
        self._full_trace = retain_trace is True
        self.sample_every = sample_every
        self.trace: list[TracedPacket] = []
        self._sent_capture: list[L2capPacket] = []
        self._target_cids: set[int] = set()
        self._target_cids_view = frozenset()
        self._sent = 0
        self._malformed = 0
        self._received = 0
        self._rejections = 0
        self._coverage = _analyzer_cls()()
        self._visited = self._coverage.visited
        self._coverage_unlocks: list[tuple[int, int]] = []
        self._last_coverage_count = self._coverage.coverage_count
        self._first_observation_sent: int | None = None
        self._mp_samples: list[tuple[int, int]] = []
        self._pr_samples: list[tuple[int, int]] = []

    # -- observation -------------------------------------------------------------

    def observe_sent(self, packet: L2capPacket, sim_time: float) -> TracedPacket | None:
        """Record one fuzzer→target packet.

        Returns the trace entry, or None below the full trace (a
        streaming or sent-capture sniffer builds no per-packet entry).
        """
        malformed = is_malformed(packet, allocated_cids=self._target_cids_view)
        entry = None
        if self.retain_trace:
            if self._full_trace:
                entry = _entry(
                    TracedPacket, (sim_time, _SENT, packet, malformed, False)
                )
                self.trace.append(entry)
            else:
                self._sent_capture.append(packet)
        self._sent += 1
        if malformed:
            self._malformed += 1
        if self._sent % self.sample_every == 0:
            self._mp_samples.append((self._sent, self._malformed))
        self._coverage.observe_sent(packet)
        if self._first_observation_sent is None:
            self._first_observation_sent = self._sent
        if len(self._visited) > self._last_coverage_count:
            self._record_coverage()
        return entry

    def observe_received(
        self, packet: L2capPacket, sim_time: float
    ) -> TracedPacket | None:
        """Record one target→fuzzer packet (entry None below the full trace)."""
        rejection = is_rejection(packet)
        entry = None
        if self._full_trace:
            entry = _entry(
                TracedPacket, (sim_time, _RECEIVED, packet, False, rejection)
            )
            self.trace.append(entry)
        self._received += 1
        if rejection:
            self._rejections += 1
        if self._received % self.sample_every == 0:
            self._pr_samples.append((self._received, self._rejections))
        if packet.code in _CID_LEARNING_CODES:
            self._learn_from_received(packet)
        self._coverage.observe_received(packet)
        if self._first_observation_sent is None:
            self._first_observation_sent = self._sent
        if len(self._visited) > self._last_coverage_count:
            self._record_coverage()
        return entry

    def _record_coverage(self) -> None:
        """Record a coverage unlock as (state count, sent packets so far)."""
        count = len(self._visited)
        self._last_coverage_count = count
        self._coverage_unlocks.append((count, self._sent))

    def _learn_from_received(self, packet: L2capPacket) -> None:
        # Only the codes in _CID_LEARNING_CODES change the CID set.
        code = packet.code
        result = packet.fields.get("result")
        cids = self._target_cids
        if code in (CommandCode.CONNECTION_RSP, CommandCode.CREATE_CHANNEL_RSP):
            if result == ConnectionResult.SUCCESS:
                dcid = packet.fields.get("dcid", 0)
                if dcid and dcid not in cids:
                    cids.add(dcid)
                    self._target_cids_view = frozenset(cids)
        elif code == CommandCode.DISCONNECTION_RSP:
            dcid = packet.fields.get("dcid", 0)
            if dcid in cids:
                cids.discard(dcid)
                self._target_cids_view = frozenset(cids)
        elif code == CommandCode.DISCONNECTION_REQ:
            scid = packet.fields.get("scid", 0)
            if scid in cids:
                cids.discard(scid)
                self._target_cids_view = frozenset(cids)

    # Nothing is learned from sent packets: even a sent Disconnection
    # Request only drops the target's CID once the response confirms it.

    # -- views ------------------------------------------------------------------

    @property
    def observed_target_cids(self) -> frozenset[int]:
        """Dynamic CIDs the target currently has allocated (wire view)."""
        return self._target_cids_view

    def require_trace(self, consumer: str) -> None:
        """Fail fast when a full-trace consumer meets a lesser capture.

        :raises ValueError: if the full trace was not retained.
        """
        if not self._full_trace:
            raise ValueError(
                f"{consumer} needs the retained packet trace, but this "
                f"sniffer was created with retain_trace={self.retain_trace!r}; "
                "re-run with retain_trace=True"
            )

    def sent(self) -> list[TracedPacket]:
        """All fuzzer→target entries (requires the full trace)."""
        self.require_trace("PacketSniffer.sent()")
        return [entry for entry in self.trace if entry.direction is Direction.SENT]

    def sent_packets(self) -> list[L2capPacket]:
        """The fuzzer→target packets in send order (sent capture or trace).

        :raises ValueError: on a streaming sniffer, which keeps none.
        """
        if self._full_trace:
            return [entry.packet for entry in self.trace if entry.direction is _SENT]
        if not self.retain_trace:
            raise ValueError(
                "PacketSniffer.sent_packets() needs the sent packets, but "
                "this sniffer was created with retain_trace=False; re-run "
                f"with retain_trace={SENT_ONLY!r} or True"
            )
        return list(self._sent_capture)

    def received(self) -> list[TracedPacket]:
        """All target→fuzzer entries (requires the full trace)."""
        self.require_trace("PacketSniffer.received()")
        return [entry for entry in self.trace if entry.direction is Direction.RECEIVED]

    # -- streaming views ---------------------------------------------------------

    def coverage(self):
        """Wire-inferred target state coverage, maintained incrementally."""
        return self._coverage.coverage()

    @property
    def coverage_count(self) -> int:
        """Number of states the streaming analyzer has inferred so far."""
        return self._coverage.coverage_count

    @property
    def coverage_unlocks(self) -> tuple[tuple[int, int], ...]:
        """(coverage count, sent packets) at each new coverage high-water."""
        return tuple(self._coverage_unlocks)

    @property
    def first_observation_sent(self) -> int | None:
        """Sent-count after the very first observation (None if none yet)."""
        return self._first_observation_sent

    def _streamed_curve(
        self,
        samples: list[tuple[int, int]],
        total: int,
        positive: int,
        sample_every: int,
    ) -> list[tuple[int, int]]:
        if sample_every != self.sample_every:
            raise ValueError(
                f"streamed curves were sampled every {self.sample_every} "
                f"packets; cannot resample at {sample_every} without the "
                "retained trace"
            )
        points = list(samples)
        if not points or points[-1][0] != total:
            points.append((total, positive))
        return points

    def streamed_mp_curve(self, sample_every: int = 1000) -> list[tuple[int, int]]:
        """Fig. 8 series from the streaming counters (no trace replay)."""
        return self._streamed_curve(
            self._mp_samples, self._sent, self._malformed, sample_every
        )

    def streamed_pr_curve(self, sample_every: int = 1000) -> list[tuple[int, int]]:
        """Fig. 9 series from the streaming counters (no trace replay)."""
        return self._streamed_curve(
            self._pr_samples, self._received, self._rejections, sample_every
        )

    def counters(self) -> dict[str, int]:
        """One-shot snapshot of every running counter (telemetry view).

        Reads the numbers the sniffer already maintains per observation —
        no extra hot-path work, just a dict built at the flush point.
        """
        return {
            "sent": self._sent,
            "malformed": self._malformed,
            "received": self._received,
            "rejections": self._rejections,
            "coverage_states": self._coverage.coverage_count,
            "coverage_unlocks": len(self._coverage_unlocks),
        }

    def transmitted_count(self) -> int:
        """Total packets the fuzzer transmitted."""
        return self._sent

    def malformed_count(self) -> int:
        """Transmitted packets classified as malformed."""
        return self._malformed

    def received_count(self) -> int:
        """Total packets received from the target."""
        return self._received

    def rejection_count(self) -> int:
        """Received packets classified as rejections."""
        return self._rejections

    def clear(self) -> None:
        """Drop the capture, counters, CID set and streaming analysis."""
        self.trace.clear()
        self._sent_capture.clear()
        self._target_cids.clear()
        self._target_cids_view = frozenset()
        self._sent = 0
        self._malformed = 0
        self._received = 0
        self._rejections = 0
        self._coverage = _analyzer_cls()()
        self._visited = self._coverage.visited
        self._coverage_unlocks.clear()
        self._last_coverage_count = self._coverage.coverage_count
        self._first_observation_sent = None
        self._mp_samples.clear()
        self._pr_samples.clear()
