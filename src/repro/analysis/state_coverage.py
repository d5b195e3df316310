"""State-coverage inference from packet traces (the PRETT substitute).

The paper measures state coverage "by analyzing the packet trace captured
using PRETT" (§IV.D) — a protocol reverse-engineering tool that infers
which protocol states the target traversed from the message sequences on
the wire. This module reimplements that inference for L2CAP: it replays a
fuzzer-side trace through a reference model of a Bluetooth 5.2 acceptor
and collects every state the target can be shown to have entered.

The inference is deliberately wire-only: it uses no access to the virtual
device's internals, so it measures exactly what PRETT measures. Tests
cross-check it against the device's ground-truth state history.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

from repro.analysis.sniffer import Direction
from repro.l2cap.constants import (
    CommandCode,
    ConfigResult,
    ConnectionResult,
)
from repro.l2cap.states import ChannelState

if TYPE_CHECKING:
    from repro.analysis.sniffer import PacketSniffer, TracedPacket


@dataclasses.dataclass
class _MirrorChannel:
    """Wire-inferred mirror of one target channel."""

    target_cid: int
    our_cid: int
    state: ChannelState
    target_config_requested: bool = False
    target_config_done: bool = False
    our_config_done: bool = False


class StateCoverageAnalyzer:
    """Infers the set of target L2CAP states exercised by a trace."""

    def __init__(self) -> None:
        self.visited: set[ChannelState] = {ChannelState.CLOSED}
        self._channels: dict[int, _MirrorChannel] = {}  # keyed by target CID
        self._our_cid_index: dict[int, _MirrorChannel] = {}
        self._pending_connects: dict[int, tuple[int, bool]] = {}  # id -> (scid, is_create)
        self._pending_moves: dict[int, int] = {}  # identifier -> icid
        self._target_disconnect_scids: set[int] = set()

    # -- public -----------------------------------------------------------------

    def feed(self, entry: TracedPacket) -> None:
        """Consume one trace entry in order."""
        if entry.direction is Direction.SENT:
            self.observe_sent(entry.packet)
        else:
            self.observe_received(entry.packet)

    def analyze(self, sniffer: PacketSniffer) -> frozenset[ChannelState]:
        """Replay a whole sniffer trace and return the states covered."""
        sniffer.require_trace("StateCoverageAnalyzer.analyze()")
        for entry in sniffer.trace:
            self.feed(entry)
        return self.coverage()

    def coverage(self) -> frozenset[ChannelState]:
        """States the target demonstrably entered."""
        return frozenset(self.visited)

    @property
    def coverage_count(self) -> int:
        """Number of covered states (the Fig. 10 bar heights)."""
        return len(self.visited)

    # -- sent-side inference -------------------------------------------------------

    def observe_sent(self, packet) -> None:
        """Streaming entry point: one fuzzer→target packet, in order."""
        # Dispatch through a value-keyed table: most fuzz packets touch
        # no inference rule, and one dict miss beats seven comparisons.
        handler = self._SENT_HANDLERS.get(packet.code)
        if handler is not None:
            handler(self, packet)

    def _sent_connection_req(self, packet) -> None:
        self._pending_connects[packet.identifier] = (
            packet.fields.get("scid", 0),
            False,
        )

    def _sent_create_channel_req(self, packet) -> None:
        self._pending_connects[packet.identifier] = (
            packet.fields.get("scid", 0),
            True,
        )

    def _sent_config_req(self, packet) -> None:
        channel = self._channels.get(packet.fields.get("dcid", 0))
        if channel is not None and channel.state in (
            ChannelState.WAIT_CONFIG,
            ChannelState.WAIT_CONFIG_REQ_RSP,
        ):
            if not channel.target_config_requested:
                # Target received our config req before sending its own:
                # it must pass through WAIT_SEND_CONFIG to emit it.
                self.visited.add(ChannelState.WAIT_SEND_CONFIG)

    def _sent_move_req(self, packet) -> None:
        self._pending_moves[packet.identifier] = packet.fields.get("icid", 0)

    def _sent_disconnection_rsp(self, packet) -> None:
        scid = packet.fields.get("dcid", 0)
        if scid in self._target_disconnect_scids:
            self._target_disconnect_scids.discard(scid)
            self._drop_by_target_cid(scid)
            self.visited.add(ChannelState.CLOSED)

    def _on_sent_config_rsp(self, packet) -> None:
        """Our response to the target's own Configuration Request."""
        channel = self._our_cid_lookup_for_config_rsp(packet)
        if channel is None:
            return
        result = packet.fields.get("result", 0)
        if result == ConfigResult.PENDING:
            self.visited.add(ChannelState.WAIT_IND_FINAL_RSP)
            channel.state = ChannelState.WAIT_IND_FINAL_RSP
        elif result in (ConfigResult.REJECTED, ConfigResult.UNACCEPTABLE_PARAMETERS):
            pass  # the target may now initiate disconnect; seen on receive
        else:
            channel.target_config_done = True
            if not channel.our_config_done:
                # The target's own request is fully answered; it now waits
                # for ours (Core 5.2: WAIT_CONFIG_REQ).
                self.visited.add(ChannelState.WAIT_CONFIG_REQ)
                channel.state = ChannelState.WAIT_CONFIG_REQ
            self._maybe_open(channel)

    def _our_cid_lookup_for_config_rsp(self, packet) -> _MirrorChannel | None:
        # In our CONFIG_RSP the scid field names the *target's* source CID.
        return self._channels.get(packet.fields.get("scid", 0))

    # -- received-side inference -----------------------------------------------------

    def observe_received(self, packet) -> None:
        """Streaming entry point: one target→fuzzer packet, in order."""
        handler = self._RECEIVED_HANDLERS.get(packet.code)
        if handler is not None:
            handler(self, packet)

    def _received_disconnection_req(self, packet) -> None:
        # Target-initiated disconnect: it is now in WAIT_DISCONNECT.
        self.visited.add(ChannelState.WAIT_DISCONNECT)
        self._target_disconnect_scids.add(packet.fields.get("scid", 0))

    def _received_disconnection_rsp(self, packet) -> None:
        self._drop_by_target_cid(packet.fields.get("dcid", 0))
        self.visited.add(ChannelState.CLOSED)

    def _received_move_confirmation_rsp(self, packet) -> None:
        channel = self._channels.get(packet.fields.get("icid", 0))
        if channel is not None and channel.state is ChannelState.WAIT_MOVE_CONFIRM:
            channel.state = ChannelState.OPEN
            self.visited.add(ChannelState.OPEN)

    def _on_received_connection_rsp(self, packet) -> None:
        pending = self._pending_connects.pop(packet.identifier, None)
        if pending is None:
            return
        our_cid, is_create = pending
        if packet.fields.get("result") != ConnectionResult.SUCCESS:
            return
        target_cid = packet.fields.get("dcid", 0)
        # A successful accept proves the target sat in its passive-open
        # state (WAIT_CONNECT / WAIT_CREATE, paper Table II) and moved on
        # to WAIT_CONFIG.
        self.visited.add(
            ChannelState.WAIT_CREATE if is_create else ChannelState.WAIT_CONNECT
        )
        self.visited.add(ChannelState.WAIT_CONFIG)
        channel = _MirrorChannel(
            target_cid=target_cid, our_cid=our_cid, state=ChannelState.WAIT_CONFIG
        )
        self._channels[target_cid] = channel
        self._our_cid_index[our_cid] = channel

    def _on_received_config_req(self, packet) -> None:
        """The target sent its own Configuration Request."""
        channel = self._our_cid_index.get(packet.fields.get("dcid", 0))
        if channel is None:
            return
        channel.target_config_requested = True
        if not channel.our_config_done and not channel.target_config_done:
            # Target asked before anything completed: it waits for both
            # our request and our response.
            self.visited.add(ChannelState.WAIT_CONFIG_REQ_RSP)
            channel.state = ChannelState.WAIT_CONFIG_REQ_RSP
        elif channel.our_config_done:
            self.visited.add(ChannelState.WAIT_CONFIG_RSP)
            channel.state = ChannelState.WAIT_CONFIG_RSP

    def _on_received_config_rsp(self, packet) -> None:
        """The target answered our Configuration Request."""
        channel = self._channels.get(packet.fields.get("scid", 0))
        if channel is None:
            # The scid in the target's response names *our* CID.
            channel = self._our_cid_index.get(packet.fields.get("scid", 0))
        if channel is None:
            return
        if packet.fields.get("result") == ConfigResult.SUCCESS:
            channel.our_config_done = True
            if not channel.target_config_done and channel.target_config_requested:
                # The target answered us but its own request is pending:
                # it waits for our response (WAIT_CONFIG_RSP).
                self.visited.add(ChannelState.WAIT_CONFIG_RSP)
                channel.state = ChannelState.WAIT_CONFIG_RSP
            self._maybe_open(channel)

    def _on_received_move_rsp(self, packet) -> None:
        icid = self._pending_moves.pop(packet.identifier, None)
        if icid is None:
            return
        if packet.fields.get("result") == 0:  # success
            self.visited.add(ChannelState.WAIT_MOVE)
            self.visited.add(ChannelState.WAIT_MOVE_CONFIRM)
            channel = self._channels.get(icid)
            if channel is not None:
                channel.state = ChannelState.WAIT_MOVE_CONFIRM

    # -- shared ------------------------------------------------------------------

    def _maybe_open(self, channel: _MirrorChannel) -> None:
        if channel.our_config_done and channel.target_config_done:
            channel.state = ChannelState.OPEN
            self.visited.add(ChannelState.OPEN)

    def _drop_by_target_cid(self, target_cid: int) -> None:
        channel = self._channels.pop(target_cid, None)
        if channel is not None:
            self._our_cid_index.pop(channel.our_cid, None)


#: Inference rules keyed by command-code value, resolved once.
StateCoverageAnalyzer._SENT_HANDLERS = {
    int(CommandCode.CONNECTION_REQ): StateCoverageAnalyzer._sent_connection_req,
    int(CommandCode.CREATE_CHANNEL_REQ): StateCoverageAnalyzer._sent_create_channel_req,
    int(CommandCode.CONFIGURATION_REQ): StateCoverageAnalyzer._sent_config_req,
    int(CommandCode.CONFIGURATION_RSP): StateCoverageAnalyzer._on_sent_config_rsp,
    int(CommandCode.MOVE_CHANNEL_REQ): StateCoverageAnalyzer._sent_move_req,
    int(CommandCode.DISCONNECTION_RSP): StateCoverageAnalyzer._sent_disconnection_rsp,
}

StateCoverageAnalyzer._RECEIVED_HANDLERS = {
    int(CommandCode.CONNECTION_RSP): StateCoverageAnalyzer._on_received_connection_rsp,
    int(CommandCode.CREATE_CHANNEL_RSP): (
        StateCoverageAnalyzer._on_received_connection_rsp
    ),
    int(CommandCode.CONFIGURATION_REQ): StateCoverageAnalyzer._on_received_config_req,
    int(CommandCode.CONFIGURATION_RSP): StateCoverageAnalyzer._on_received_config_rsp,
    int(CommandCode.DISCONNECTION_REQ): (
        StateCoverageAnalyzer._received_disconnection_req
    ),
    int(CommandCode.DISCONNECTION_RSP): (
        StateCoverageAnalyzer._received_disconnection_rsp
    ),
    int(CommandCode.MOVE_CHANNEL_RSP): StateCoverageAnalyzer._on_received_move_rsp,
    int(CommandCode.MOVE_CHANNEL_CONFIRMATION_RSP): (
        StateCoverageAnalyzer._received_move_confirmation_rsp
    ),
}


def state_coverage(sniffer: PacketSniffer) -> frozenset[ChannelState]:
    """One-shot helper: the covered states inferred from a sniffer.

    Reads the sniffer's streaming analyzer (fed at observe time), so it
    is O(1) at report time and works whether or not the per-packet trace
    was retained. Identical to replaying the trace: the stream sees the
    same packets in the same order.
    """
    return sniffer.coverage()


def packets_to_coverage(sniffer: PacketSniffer, target_count: int) -> int | None:
    """Transmitted packets until the stream demonstrates *target_count* states.

    Returns the number of fuzzer→target packets on the wire when the
    wire-inferred coverage first reached *target_count* — the
    packets-to-coverage metric the corpus feedback benchmark compares
    schedulers on. None when the campaign never got there. Served from
    the sniffer's streamed coverage-unlock log, so it needs no retained
    trace.
    """
    if target_count <= 1:
        # The analyzer starts with CLOSED covered, so the first
        # observation of any direction already demonstrates the target —
        # mirroring the historical replay, which returned the sent-count
        # after the first trace entry.
        return sniffer.first_observation_sent
    for count, sent in sniffer.coverage_unlocks:
        if count >= target_count:
            return sent
    return None


def coverage_report(covered: frozenset, universe=None) -> dict:
    """Summarise coverage the way Fig. 10 / Fig. 11 present it.

    :param universe: the full state space the coverage is measured
        against; defaults to the 19 L2CAP channel states. Pass a
        protocol target's ``state_universe()`` for non-L2CAP campaigns.
    """
    if universe is None:
        universe = tuple(ChannelState)
    return {
        "count": len(covered),
        "total": len(universe),
        "states": sorted(state.value for state in covered),
        "missing": sorted(
            state.value for state in universe if state not in covered
        ),
    }
