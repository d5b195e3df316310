"""The L2CAP host-stack engine driving every virtual device.

One engine instance is the software stack of one target: it parses
incoming signaling frames, enforces the Bluetooth 5.2 rejection rules
(modulated by its :class:`~repro.stack.vendors.VendorPersonality`), runs
the per-channel 19-state machine, and feeds accepted packets past the
injected vulnerability models.

Design invariant reproduced from the paper: **rejected packets never
reach buggy code.** Bug predicates are evaluated only on packets the
stack accepted for parsing, which is why the fuzzer's core-field
discipline matters at all.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from collections.abc import Callable

from repro.errors import ChannelError, PacketDecodeError, TargetCrashedError
from repro.hci.transport import SimClock
from repro.l2cap.constants import (
    COMMAND_NAME_BY_VALUE,
    CONFIG_OPTION_TYPE_VALUES,
    CommandCode,
    ConfigOptionType,
    ConfigResult,
    ConnectionResult,
    InfoResult,
    InfoType,
    MIN_SIGNALING_MTU,
    MoveResult,
    RejectReason,
    SIGNALING_CID,
    is_valid_psm,
)
from repro.l2cap.jobs import job_of
from repro.l2cap.packets import (
    L2capPacket,
    command_reject,
    configuration_request,
    decode_options,
    disconnection_request,
    SPEC_BY_CODE,
    SignalTemplate,
    signal_template,
)
from repro.l2cap.states import ChannelState, CONFIGURATION_STATES
from repro.l2cap.validation import structural_reject_reason
from repro.stack.channels import ChannelManager
from repro.stack.crash import CrashReport
from repro.stack.services import ServiceDirectory
from repro.stack.vendors import VendorPersonality
from repro.stack.vulnerabilities import TriggerContext, VulnerabilityModel


@dataclasses.dataclass(frozen=True)
class StateVisit:
    """One recorded entry of a channel into a state."""

    sim_time: float
    local_cid: int
    state: ChannelState


class HostStackEngine:
    """Vendor-flavoured L2CAP acceptor.

    :param personality: behavioural profile of the vendor stack.
    :param services: the device's service directory.
    :param clock: campaign clock (response latency is charged here).
    :param vulnerabilities: injected bug models.
    :param armed: when False the bug predicates are skipped — used by the
        measurement harness so 100k-packet ratio runs are not cut short
        by a crash (the paper measured ratios and detection separately).
    :param data_handlers: upper-layer services keyed by PSM — payload
        bytes in, response payload bytes out (e.g. the SDP server).
        Data frames to a live channel whose PSM has a handler are
        answered on that channel; all other data frames are dropped.
    """

    def __init__(
        self,
        personality: VendorPersonality,
        services: ServiceDirectory,
        clock: SimClock | None = None,
        vulnerabilities: tuple[VulnerabilityModel, ...] = (),
        armed: bool = True,
        data_handlers: dict | None = None,
    ) -> None:
        self.personality = personality
        self.services = services
        self.clock = clock if clock is not None else SimClock()
        self._vulnerabilities = tuple(vulnerabilities)
        self.armed = armed
        self.data_handlers = dict(data_handlers or {})
        self.channels = ChannelManager(personality.max_channels)
        # Ambient-state cache: (channel-table version, state, state.value).
        # Valid until the table's membership or any block's state changes
        # — both bump ``channels.version`` — so the per-packet transition
        # accounting stops re-walking the table for every fuzz frame.
        self._ambient_cache: tuple[int, ChannelState, str] = (
            self.channels.version,
            ChannelState.CLOSED,
            ChannelState.CLOSED.value,
        )
        # Bug-predicate facts: (channel-table version, allocated CIDs,
        # live channel states), refreshed under the same invalidation.
        self._bug_facts: tuple[int, frozenset[int], frozenset[ChannelState]] = (
            -1,
            frozenset(),
            frozenset(),
        )
        self.state_history: list[StateVisit] = []
        self.crash: CrashReport | None = None
        self._next_identifier = 0x70
        # Per-packet personality reads, hoisted out of the hot loop
        # (personalities are frozen).
        self._response_latency = personality.response_latency
        self._signaling_mtu = personality.signaling_mtu
        self._rejects_garbage_tail = personality.rejects_garbage_tail
        #: Transition-coverage counters: (code, state, outcome) → hits.
        #: A black-box stand-in for the code coverage the paper cannot
        #: measure (§V cites Frankenstein's firmware-emulation
        #: approach); each key approximates one branch of the command
        #: dispatcher of a real stack. Keys hold the raw command code;
        #: the readers below attach command names.
        self.transition_hits: Counter = Counter()

    def fork(self, clock: SimClock, data_handlers: dict) -> HostStackEngine:
        """An independent copy of this stack, running on *clock*.

        The channel table, state history, transition tallies, crash and
        identifier cursor are copied; the frozen personality, the bug
        models and the service directory are shared. *data_handlers*
        replaces the upper-layer handlers (the caller forks the stateful
        ones, see :func:`fork_handlers`).
        """
        clone = HostStackEngine.__new__(HostStackEngine)
        clone.__dict__.update(self.__dict__)
        clone.clock = clock
        clone.data_handlers = data_handlers
        clone.channels = self.channels.fork()
        clone.state_history = list(self.state_history)
        clone.transition_hits = self.transition_hits.copy()
        return clone

    # -- bug arming -------------------------------------------------------------

    @property
    def armed(self) -> bool:
        """Whether the injected bug models are live."""
        return self._armed

    @armed.setter
    def armed(self, value: bool) -> None:
        self._armed = value
        self._rearm()

    @property
    def vulnerabilities(self) -> tuple[VulnerabilityModel, ...]:
        """The injected bug models (evaluated only while :attr:`armed`)."""
        return self._vulnerabilities

    @vulnerabilities.setter
    def vulnerabilities(self, models) -> None:
        self._vulnerabilities = tuple(models)
        self._rearm()

    def _rearm(self) -> None:
        # The live models, empty when disarmed: command handlers skip
        # the bug-check call entirely on an empty tuple.
        models = self._vulnerabilities if self._armed else ()
        self._bug_models = models
        # Command code → the live models that can fire on it, in
        # registration order (two models matching one packet fire in
        # that order). Only packets with a command layout get past the
        # structural check to a bug check.
        self._bugs_by_code = {
            code: tuple(
                model
                for model in models
                if model.codes is None or code in model.codes
            )
            for code in SPEC_BY_CODE
        }

    # -- public surface --------------------------------------------------------

    def handle_l2cap(self, packet: L2capPacket) -> list[L2capPacket]:
        """Process one incoming L2CAP frame; return outgoing frames.

        :raises TargetCrashedError: when an injected bug triggers.
        """
        if self.crash is not None:
            return []
        if self._response_latency:
            self.clock.advance(self._response_latency)

        if packet.header_cid != SIGNALING_CID:
            return self._handle_data_frame(packet)

        # CID checks are done per-command; only the F/D (framing) part of
        # the validation verdict gates dispatch, served from the
        # structural pass the sniffer already memoized on the packet.
        # Hardened parsers also discard anything past the declared length.
        reason = structural_reject_reason(packet, self._signaling_mtu)
        if reason is None and self._rejects_garbage_tail and packet.garbage:
            reason = RejectReason.COMMAND_NOT_UNDERSTOOD
        if reason is not None:
            responses = [command_reject(reason, packet.identifier)]
            outcome = "structural-reject"
        else:
            handler = self._HANDLERS.get(packet.code, HostStackEngine._on_le_family)
            responses = handler(self, packet)
            outcome = (
                "silent"
                if not responses
                else "reject"
                if responses[0].code == CommandCode.COMMAND_REJECT
                else "handled"
            )
        # Keyed by the ambient state the packet left behind.
        cache = self._ambient_cache
        if cache[0] != self.channels.version:
            cache = self._refresh_ambient()
        self.transition_hits[(packet.code, cache[2], outcome)] += 1
        return responses

    def reset(self) -> None:
        """Restart the stack after a crash (the testbed's device reset)."""
        self.crash = None
        self.channels.clear()

    def transition_coverage(self) -> frozenset[tuple[str, str, str]]:
        """Distinct (command, state, outcome) branches exercised so far.

        Every code outside the 26 commands counts as one ``UNKNOWN``
        command.
        """
        names = COMMAND_NAME_BY_VALUE
        return frozenset(
            (names.get(code, "UNKNOWN"), state, outcome)
            for code, state, outcome in self.transition_hits
        )

    def outcome_totals(self) -> dict[str, int]:
        """Per-outcome totals of the transition tallies (telemetry view).

        Aggregates the ``(code, state, outcome)`` counters the engine
        already maintains — ``structural-reject``, ``reject``,
        ``handled``, ``silent`` — so the telemetry flush reads finished
        numbers instead of adding anything to the dispatch hot path.
        """
        totals: dict[str, int] = {}
        for (_, _, outcome), hits in self.transition_hits.items():
            totals[outcome] = totals.get(outcome, 0) + hits
        return totals

    # -- helpers ---------------------------------------------------------------

    def _handle_data_frame(self, packet: L2capPacket) -> list[L2capPacket]:
        """Non-signaling traffic: deliver to a live channel or drop.

        Data frames never elicit *signaling* responses; a frame addressed
        to a live channel whose PSM has an upper-layer handler (the SDP
        server) is answered with a data frame on the same channel, built
        with its loopback verdict already set (the direct hop reads it).
        """
        block = self.channels.get(packet.header_cid)
        if block is None:
            return []
        handler = self.data_handlers.get(block.psm)
        if handler is None:
            return []
        response_payload = handler(packet.tail)
        if not response_payload:
            return []
        return [L2capPacket.data_frame(block.remote_cid, response_payload)]

    def _visit(self, local_cid: int, state: ChannelState) -> None:
        self.state_history.append(StateVisit(self.clock.now, local_cid, state))

    def _set_state(self, block, state: ChannelState) -> None:
        block.state = state
        self.channels.version += 1
        self._visit(block.local_cid, state)

    def _take_identifier(self) -> int:
        self._next_identifier = self._next_identifier % 0xFF + 1
        return self._next_identifier

    def _ambient_state(self) -> ChannelState:
        """Best guess at 'the state under test' for orphan packets.

        Real stacks execute their channel state machine with whatever
        control block the lookup produced (possibly NULL); the relevant
        state is that of the connection's active channel. We use the most
        recently progressed live channel, preferring mid-configuration
        ones, falling back to CLOSED. The answer is cached against the
        channel table's version, so state changes must go through
        :meth:`_set_state` (they do — it bumps the version).
        """
        cache = self._ambient_cache
        if cache[0] == self.channels.version:
            return cache[1]
        return self._refresh_ambient()[1]

    def _refresh_ambient(self) -> tuple[int, ChannelState, str]:
        channels = self.channels
        state = None
        if len(channels):
            newest = None
            for block in reversed(channels.blocks()):
                if newest is None:
                    newest = block
                if block.state in CONFIGURATION_STATES:
                    state = block.state
                    break
            if state is None:
                state = newest.state
        else:
            state = ChannelState.CLOSED
        cache = (channels.version, state, state.value)
        self._ambient_cache = cache
        return cache

    def _check_bugs(self, packet: L2capPacket, state: ChannelState | None) -> None:
        """Evaluate injected bug predicates on an accepted packet.

        Only the models that can fire on the packet's command code are
        evaluated; when there are none, no trigger context is built.

        :raises TargetCrashedError: when a predicate matches (armed only).
        """
        models = self._bugs_by_code.get(packet.code)
        if not models or self.crash is not None:
            return
        effective_state = state if state is not None else self._ambient_state()
        facts = self._bug_facts
        channels = self.channels
        if facts[0] != channels.version:
            facts = self._bug_facts = (
                channels.version,
                channels.allocated_cids(),
                frozenset(block.state for block in channels.blocks()),
            )
        context = TriggerContext(
            packet=packet,
            state=effective_state,
            job=job_of(effective_state),
            allocated_cids=facts[1],
            live_states=facts[2],
        )
        for model in models:
            if model.check(context):
                self.crash = model.fire(context, self.clock.now)
                raise TargetCrashedError(self.crash)

    def _unsolicited_response(self, packet: L2capPacket) -> list[L2capPacket]:
        """Handle a response command that answers nothing we sent."""
        if self.personality.accepts_unsolicited_responses:
            if self._bug_models:
                self._check_bugs(packet, None)
            return []  # the Android quirk of paper §III.C: silently eaten
        return [command_reject(RejectReason.COMMAND_NOT_UNDERSTOOD, packet.identifier)]

    # -- dispatch ----------------------------------------------------------------

    #: Command dispatch table, populated once after the class body: the
    #: per-packet construction of this dict (and the ``CommandCode``
    #: call) was a measurable slice of the 20k-packet hot path.
    _HANDLERS: dict[int, Callable] = {}

    # -- command handlers ----------------------------------------------------------

    def _on_command_reject(self, packet: L2capPacket) -> list[L2capPacket]:
        return []  # rejects are terminal; never answered

    def _on_connection_req(self, packet: L2capPacket) -> list[L2capPacket]:
        if self._bug_models:
            self._check_bugs(packet, ChannelState.CLOSED)
        psm = packet.fields.get("psm", 0)
        scid = packet.fields.get("scid", 0)

        def refuse(result: ConnectionResult) -> list[L2capPacket]:
            return [_CONNECTION_RSP.build(packet.identifier, 0, scid, result)]

        if not is_valid_psm(psm):
            return refuse(ConnectionResult.REFUSED_PSM_NOT_SUPPORTED)
        record = self.services.lookup(psm)
        if record is None:
            return refuse(ConnectionResult.REFUSED_PSM_NOT_SUPPORTED)
        if record.requires_pairing:
            # Unpaired peer: refused without parsing further (paper §III.B).
            return refuse(ConnectionResult.REFUSED_SECURITY_BLOCK)
        if not 0x0040 <= scid <= 0xFFFF:
            return refuse(ConnectionResult.REFUSED_INVALID_SCID)
        if self.channels.by_remote_cid(scid) is not None:
            return refuse(ConnectionResult.REFUSED_SCID_ALREADY_ALLOCATED)
        try:
            block = self.channels.allocate(
                psm, scid, initiates_config=record.initiates_config
            )
        except ChannelError:
            return refuse(ConnectionResult.REFUSED_NO_RESOURCES)

        # The service sat in passive-open; entering via Connect Req is the
        # WAIT_CONNECT row of paper Table II.
        self._visit(block.local_cid, ChannelState.WAIT_CONNECT)
        responses = [
            _CONNECTION_RSP.build(
                packet.identifier, block.local_cid, scid, ConnectionResult.SUCCESS
            )
        ]
        self._set_state(block, ChannelState.WAIT_CONFIG)
        if block.initiates_config:
            responses.append(self._send_local_config(block))
            self._set_state(block, ChannelState.WAIT_CONFIG_REQ_RSP)
        return responses

    def _on_create_channel_req(self, packet: L2capPacket) -> list[L2capPacket]:
        if self._bug_models:
            self._check_bugs(packet, ChannelState.WAIT_CREATE)
        psm = packet.fields.get("psm", 0)
        scid = packet.fields.get("scid", 0)
        cont_id = packet.fields.get("cont_id", 0)

        def refuse(result: ConnectionResult) -> list[L2capPacket]:
            return [_CREATE_CHANNEL_RSP.build(packet.identifier, 0, scid, result)]

        if not self.personality.supports_amp:
            return refuse(ConnectionResult.REFUSED_CONTROLLER_ID_NOT_SUPPORTED)
        if cont_id not in (0, 1):
            return refuse(ConnectionResult.REFUSED_CONTROLLER_ID_NOT_SUPPORTED)
        if not is_valid_psm(psm) or not self.services.supports(psm):
            return refuse(ConnectionResult.REFUSED_PSM_NOT_SUPPORTED)
        record = self.services.lookup(psm)
        if record.requires_pairing:
            return refuse(ConnectionResult.REFUSED_SECURITY_BLOCK)
        if not 0x0040 <= scid <= 0xFFFF:
            return refuse(ConnectionResult.REFUSED_INVALID_SCID)
        if self.channels.by_remote_cid(scid) is not None:
            return refuse(ConnectionResult.REFUSED_SCID_ALREADY_ALLOCATED)
        try:
            block = self.channels.allocate(
                psm, scid, initiates_config=record.initiates_config
            )
        except ChannelError:
            return refuse(ConnectionResult.REFUSED_NO_RESOURCES)

        self._visit(block.local_cid, ChannelState.WAIT_CREATE)
        responses = [
            _CREATE_CHANNEL_RSP.build(
                packet.identifier, block.local_cid, scid, ConnectionResult.SUCCESS
            )
        ]
        self._set_state(block, ChannelState.WAIT_CONFIG)
        if block.initiates_config:
            responses.append(self._send_local_config(block))
            self._set_state(block, ChannelState.WAIT_CONFIG_REQ_RSP)
        return responses

    def _evaluate_config_options(self, packet: L2capPacket) -> ConfigResult:
        """Negotiate the option TLVs of a Configuration Request.

        Core 5.2 Vol 3 Part A §5: an MTU below the 48-byte minimum is
        unacceptable; an unknown option whose type lacks the hint bit
        (0x80) yields UNKNOWN_OPTIONS; undecodable TLVs are rejected.
        """
        if not packet.tail:
            return ConfigResult.SUCCESS
        try:
            options = decode_options(packet.tail)
        except PacketDecodeError:
            return ConfigResult.REJECTED
        for option in options:
            base_type = option.option_type & 0x7F
            if base_type not in CONFIG_OPTION_TYPE_VALUES:
                if option.option_type & 0x80:
                    continue  # hint options may be ignored
                return ConfigResult.UNKNOWN_OPTIONS
            if base_type == ConfigOptionType.MTU and len(option.value) >= 2:
                mtu = int.from_bytes(option.value[:2], "little")
                if mtu < MIN_SIGNALING_MTU:
                    return ConfigResult.UNACCEPTABLE_PARAMETERS
        return ConfigResult.SUCCESS

    def _send_local_config(self, block) -> L2capPacket:
        block.local_config_sent = True
        return configuration_request(
            dcid=block.remote_cid, identifier=self._take_identifier()
        )

    def _on_configuration_req(self, packet: L2capPacket) -> list[L2capPacket]:
        dcid = packet.fields.get("dcid", 0)
        block = self.channels.get(dcid)
        if block is None:
            if self.personality.accepts_unallocated_cidp:
                # The BlueDroid quirk: the CSM executes with whatever the
                # lookup returned — the D1/D2 bug path.
                if self._bug_models:
                    self._check_bugs(packet, None)
                return [
                    _CONFIGURATION_RSP.build(packet.identifier, 0, ConfigResult.SUCCESS)
                ]
            return [command_reject(RejectReason.INVALID_CID, packet.identifier)]

        if block.state not in CONFIGURATION_STATES and block.state is not ChannelState.OPEN:
            return [command_reject(RejectReason.COMMAND_NOT_UNDERSTOOD, packet.identifier)]

        if self._bug_models:
            self._check_bugs(packet, block.state)
        option_result = self._evaluate_config_options(packet)
        if option_result is not ConfigResult.SUCCESS:
            # Negotiation failure: the channel stays where it was and the
            # peer must retry with acceptable parameters.
            return [
                _CONFIGURATION_RSP.build(
                    packet.identifier, block.remote_cid, option_result
                )
            ]
        if block.state is ChannelState.OPEN:
            block.reset_config()
            self._set_state(block, ChannelState.WAIT_CONFIG)

        block.remote_config_done = True
        responses = [
            _CONFIGURATION_RSP.build(
                packet.identifier, block.remote_cid, ConfigResult.SUCCESS
            )
        ]
        if not block.local_config_sent:
            # We owe our own Configuration Request: pass through
            # WAIT_SEND_CONFIG and emit it.
            self._set_state(block, ChannelState.WAIT_SEND_CONFIG)
            responses.append(self._send_local_config(block))
            self._set_state(block, ChannelState.WAIT_CONFIG_RSP)
        elif block.local_config_done:
            self._set_state(block, ChannelState.OPEN)
        else:
            self._set_state(block, ChannelState.WAIT_CONFIG_RSP)
        return responses

    def _on_configuration_rsp(self, packet: L2capPacket) -> list[L2capPacket]:
        scid = packet.fields.get("scid", 0)
        block = self.channels.get(scid)
        if block is None or not block.local_config_sent or block.local_config_done:
            return self._unsolicited_response(packet)

        if self._bug_models:
            self._check_bugs(packet, block.state)
        result = packet.fields.get("result", 0)
        if result == ConfigResult.PENDING and self.personality.config_pending_supported:
            self._set_state(block, ChannelState.WAIT_IND_FINAL_RSP)
            return []
        if result in (ConfigResult.REJECTED, ConfigResult.UNACCEPTABLE_PARAMETERS):
            if self.personality.disconnects_on_config_rejection:
                request = disconnection_request(
                    dcid=block.remote_cid,
                    scid=block.local_cid,
                    identifier=self._take_identifier(),
                )
                self._set_state(block, ChannelState.WAIT_DISCONNECT)
                return [request]
            return []
        block.local_config_done = True
        if block.remote_config_done:
            self._set_state(block, ChannelState.OPEN)
        else:
            self._set_state(block, ChannelState.WAIT_CONFIG_REQ)
        return []

    def _on_disconnection_req(self, packet: L2capPacket) -> list[L2capPacket]:
        dcid = packet.fields.get("dcid", 0)
        scid = packet.fields.get("scid", 0)
        block = self.channels.get(dcid)
        if block is None or (block.remote_cid != scid and scid != 0):
            if self._bug_models:
                self._check_bugs(packet, None)
            return [command_reject(RejectReason.INVALID_CID, packet.identifier)]
        if self._bug_models:
            self._check_bugs(packet, block.state)
        self.channels.release(block.local_cid)
        self._visit(block.local_cid, ChannelState.CLOSED)
        return [_DISCONNECTION_RSP.build(packet.identifier, dcid, scid)]

    def _on_disconnection_rsp(self, packet: L2capPacket) -> list[L2capPacket]:
        scid = packet.fields.get("scid", 0)
        block = self.channels.get(scid)
        if block is None or block.state is not ChannelState.WAIT_DISCONNECT:
            return self._unsolicited_response(packet)
        if self._bug_models:
            self._check_bugs(packet, block.state)
        self.channels.release(block.local_cid)
        self._visit(block.local_cid, ChannelState.CLOSED)
        return []

    def _on_echo_req(self, packet: L2capPacket) -> list[L2capPacket]:
        if self._bug_models:
            self._check_bugs(packet, None)
        return [_ECHO_RSP.build(packet.identifier, packet.tail)]

    def _on_information_req(self, packet: L2capPacket) -> list[L2capPacket]:
        if self._bug_models:
            self._check_bugs(packet, None)
        info_type = packet.fields.get("info_type", 0)
        template = _INFORMATION_RSPS.get(info_type, _INFORMATION_UNSUPPORTED)
        return [template.build(packet.identifier, info_type)]

    def _on_move_channel_req(self, packet: L2capPacket) -> list[L2capPacket]:
        icid = packet.fields.get("icid", 0)

        def respond(result: MoveResult) -> list[L2capPacket]:
            return [_MOVE_CHANNEL_RSP.build(packet.identifier, icid, result)]

        if not self.personality.supports_amp:
            return respond(MoveResult.REFUSED_NOT_ALLOWED)
        block = self.channels.get(icid)
        if block is None:
            if self._bug_models:
                self._check_bugs(packet, None)
            return [command_reject(RejectReason.INVALID_CID, packet.identifier)]
        if block.state is not ChannelState.OPEN:
            return respond(MoveResult.REFUSED_COLLISION)
        if self._bug_models:
            self._check_bugs(packet, block.state)
        self._visit(block.local_cid, ChannelState.WAIT_MOVE)
        self._set_state(block, ChannelState.WAIT_MOVE_CONFIRM)
        return respond(MoveResult.SUCCESS)

    def _on_move_confirmation_req(self, packet: L2capPacket) -> list[L2capPacket]:
        icid = packet.fields.get("icid", 0)
        block = self.channels.get(icid)
        if not self.personality.supports_amp or block is None:
            if self._bug_models:
                self._check_bugs(packet, None)
            return [command_reject(RejectReason.INVALID_CID, packet.identifier)]
        if block.state is not ChannelState.WAIT_MOVE_CONFIRM:
            return [command_reject(RejectReason.COMMAND_NOT_UNDERSTOOD, packet.identifier)]
        if self._bug_models:
            self._check_bugs(packet, block.state)
        self._set_state(block, ChannelState.OPEN)
        return [_MOVE_CONFIRMATION_RSP.build(packet.identifier, icid)]

    def _on_le_family(self, packet: L2capPacket) -> list[L2capPacket]:
        """Handle the LE / credit-based command family (codes 0x12–0x1A).

        BR/EDR-only stacks reject these outright; LE-capable stacks parse
        them but refuse the operations on a BR/EDR link.
        """
        if not self.personality.supports_le_signaling:
            return [command_reject(RejectReason.COMMAND_NOT_UNDERSTOOD, packet.identifier)]
        if self._bug_models:
            self._check_bugs(packet, None)
        template = _LE_FAMILY_RSPS.get(packet.code)
        if template is None:
            # Credits for an unknown channel are silently dropped, and
            # stray LE responses are ignored.
            return []
        return [template.build(packet.identifier)]


def fork_handlers(handlers: dict, forks: dict) -> dict:
    """Copy of *handlers* rebound onto forked owners.

    A handler bound to an object with a ``fork()`` method — a stateful
    upper-layer server such as the RFCOMM mux or an OBEX server — is
    rebound to that owner's fork, made once per owner and recorded in
    *forks* (``id(owner)`` → fork). Any other handler (the stateless SDP
    server, a plain function) is shared.
    """
    forked = {}
    for key, handler in handlers.items():
        owner = getattr(handler, "__self__", None)
        fork = getattr(owner, "fork", None)
        if fork is not None:
            clone = forks.get(id(owner))
            if clone is None:
                clone = forks[id(owner)] = fork()
            handler = getattr(clone, handler.__name__)
        forked[key] = handler
    return forked


# Every signalling response the engine sends, from the template table
# (see repro.l2cap.packets.signal_template): per-call values are named
# in build order; the rest is fixed here once.
_CONNECTION_RSP = signal_template(
    CommandCode.CONNECTION_RSP, {"status": 0}, ("dcid", "scid", "result")
)
_CREATE_CHANNEL_RSP = signal_template(
    CommandCode.CREATE_CHANNEL_RSP, {"status": 0}, ("dcid", "scid", "result")
)
_CONFIGURATION_RSP = signal_template(
    CommandCode.CONFIGURATION_RSP, {"flags": 0}, ("scid", "result")
)
_DISCONNECTION_RSP = signal_template(
    CommandCode.DISCONNECTION_RSP, per_call=("dcid", "scid")
)
_ECHO_RSP = signal_template(CommandCode.ECHO_RSP, tail=None)
_MOVE_CHANNEL_RSP = signal_template(
    CommandCode.MOVE_CHANNEL_RSP, per_call=("icid", "result")
)
_MOVE_CONFIRMATION_RSP = signal_template(
    CommandCode.MOVE_CHANNEL_CONFIRMATION_RSP, per_call=("icid",)
)

#: Information Responses keyed by InfoType value, each with its payload
#: (Core 5.2 Vol 3 Part A §4.10); a miss answers NOT_SUPPORTED.
_INFORMATION_RSPS: dict[int, SignalTemplate] = {
    info_type.value: signal_template(
        CommandCode.INFORMATION_RSP,
        {"result": InfoResult.SUCCESS},
        ("info_type",),
        tail=payload,
    )
    for info_type, payload in (
        (InfoType.CONNECTIONLESS_MTU, (672).to_bytes(2, "little")),
        (InfoType.EXTENDED_FEATURES, (0x000002B8).to_bytes(4, "little")),
        (InfoType.FIXED_CHANNELS, (0x00000006).to_bytes(8, "little")),
    )
}
_INFORMATION_UNSUPPORTED = signal_template(
    CommandCode.INFORMATION_RSP, {"result": InfoResult.NOT_SUPPORTED}, ("info_type",)
)

#: LE / credit-based requests an LE-capable stack answers (refusing the
#: operation on a BR/EDR link), keyed by request code.
_LE_FAMILY_RSPS: dict[int, SignalTemplate] = {
    int(CommandCode.CONNECTION_PARAMETER_UPDATE_REQ): signal_template(
        CommandCode.CONNECTION_PARAMETER_UPDATE_RSP, {"result": 0}
    ),
    int(CommandCode.LE_CREDIT_BASED_CONNECTION_REQ): signal_template(
        CommandCode.LE_CREDIT_BASED_CONNECTION_RSP,
        {"dcid": 0, "mtu": 0, "mps": 0, "credit": 0, "result": 0x0002},
    ),
    int(CommandCode.CREDIT_BASED_CONNECTION_REQ): signal_template(
        CommandCode.CREDIT_BASED_CONNECTION_RSP,
        {"mtu": 0, "mps": 0, "credit": 0, "result": 0x0002},
    ),
    int(CommandCode.CREDIT_BASED_RECONFIGURE_REQ): signal_template(
        CommandCode.CREDIT_BASED_RECONFIGURE_RSP, {"result": 0x0001}
    ),
}

#: BR/EDR command dispatch, resolved once. Codes outside this table fall
#: through to the LE / credit-based family handler.
HostStackEngine._HANDLERS = {
    int(CommandCode.COMMAND_REJECT): HostStackEngine._on_command_reject,
    int(CommandCode.CONNECTION_REQ): HostStackEngine._on_connection_req,
    int(CommandCode.CONNECTION_RSP): HostStackEngine._unsolicited_response,
    int(CommandCode.CONFIGURATION_REQ): HostStackEngine._on_configuration_req,
    int(CommandCode.CONFIGURATION_RSP): HostStackEngine._on_configuration_rsp,
    int(CommandCode.DISCONNECTION_REQ): HostStackEngine._on_disconnection_req,
    int(CommandCode.DISCONNECTION_RSP): HostStackEngine._on_disconnection_rsp,
    int(CommandCode.ECHO_REQ): HostStackEngine._on_echo_req,
    int(CommandCode.ECHO_RSP): HostStackEngine._unsolicited_response,
    int(CommandCode.INFORMATION_REQ): HostStackEngine._on_information_req,
    int(CommandCode.INFORMATION_RSP): HostStackEngine._unsolicited_response,
    int(CommandCode.CREATE_CHANNEL_REQ): HostStackEngine._on_create_channel_req,
    int(CommandCode.CREATE_CHANNEL_RSP): HostStackEngine._unsolicited_response,
    int(CommandCode.MOVE_CHANNEL_REQ): HostStackEngine._on_move_channel_req,
    int(CommandCode.MOVE_CHANNEL_RSP): HostStackEngine._unsolicited_response,
    int(CommandCode.MOVE_CHANNEL_CONFIRMATION_REQ): (
        HostStackEngine._on_move_confirmation_req
    ),
    int(CommandCode.MOVE_CHANNEL_CONFIRMATION_RSP): (
        HostStackEngine._unsolicited_response
    ),
}
