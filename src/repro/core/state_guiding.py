"""Phase 2 — state guiding (paper §III.C).

Drives the target into each L2CAP state using only *valid* commands, so
the fuzzing phase can test every job with packets the target will parse.
The guide owns:

* the ordered **state plan** — the 13 acceptor-reachable states, walked
  from shallow (CLOSED) to deep (move states);
* a **route** per state — the exact valid-command exchange that parks the
  target there, built on the open ports the scanner found;
* **teardown** — valid disconnections after each state's fuzzing, so the
  next route starts clean.

Routes adapt to the target: services that initiate their own
Configuration Request on accept expose the WAIT_CONFIG_REQ/_REQ_RSP side
of the configuration sub-machine, passive services expose the
WAIT_SEND_CONFIG/_RSP side, and stacks without AMP simply cannot be put
into the move states (the guide then fuzzes the move job from OPEN, which
is what the real tool's generous command map amounts to).
"""

from __future__ import annotations

import dataclasses

from repro.core.packet_queue import PacketQueue
from repro.core.target_scanning import ScanResult
from repro.l2cap.constants import CommandCode, ConfigResult, ConnectionResult
from repro.l2cap.jobs import Job, job_of
from repro.l2cap.packets import (
    configuration_request,
    configuration_response,
    connection_request,
    create_channel_request,
    disconnection_request,
    move_channel_request,
)
from repro.l2cap.states import ChannelState


@dataclasses.dataclass
class ChannelContext:
    """A live channel the guide established.

    :param our_cid: the CID we allocated (SCID on the wire).
    :param target_cid: the CID the target allocated (its DCID).
    :param psm: the port the channel was opened on.
    :param device_config_req_id: identifier of the target's own pending
        Configuration Request, if it sent one.
    """

    our_cid: int
    target_cid: int
    psm: int
    device_config_req_id: int | None = None


@dataclasses.dataclass
class GuidedState:
    """Result of routing: where we parked the target.

    :param intended: the plan's target state.
    :param job: its job (paper Table I) — selects the valid command set.
    :param channel: live channel context (None for channel-less states).
    """

    intended: ChannelState
    job: Job
    channel: ChannelContext | None


#: The state plan: every acceptor-reachable state, shallow to deep.
STATE_PLAN: tuple[ChannelState, ...] = (
    ChannelState.CLOSED,
    ChannelState.WAIT_CONNECT,
    ChannelState.WAIT_CREATE,
    ChannelState.WAIT_CONFIG,
    ChannelState.WAIT_SEND_CONFIG,
    ChannelState.WAIT_CONFIG_RSP,
    ChannelState.WAIT_CONFIG_REQ,
    ChannelState.WAIT_CONFIG_REQ_RSP,
    ChannelState.WAIT_IND_FINAL_RSP,
    ChannelState.OPEN,
    ChannelState.WAIT_DISCONNECT,
    ChannelState.WAIT_MOVE,
    ChannelState.WAIT_MOVE_CONFIRM,
)


class StateGuide:
    """Routes the target through the state plan.

    :param queue: packet queue to the target.
    :param scan: phase-1 result (open ports).
    :param our_base_cid: first CID the guide allocates for itself.
    """

    def __init__(self, queue: PacketQueue, scan: ScanResult, our_base_cid: int = 0x0050) -> None:
        self.queue = queue
        self.scan = scan
        self._next_cid = our_base_cid
        self._live: list[ChannelContext] = []
        #: learned behaviour of each open port: True = the port's service
        #: initiates its own Configuration Request on accept.
        self._port_initiates: dict[int, bool] = {}

    # -- plan ------------------------------------------------------------------

    def plan(self) -> tuple[ChannelState, ...]:
        """The ordered states this campaign will visit."""
        return STATE_PLAN

    # -- routing -----------------------------------------------------------------

    def enter(self, state: ChannelState) -> GuidedState:
        """Drive the target into *state* using valid commands.

        Falls back gracefully: when a route's precondition is unavailable
        on this target (no AMP, no config-initiating port), the guide
        parks the target in the nearest same-job or OPEN state so the
        job's commands are still exercised.

        :raises TransportError: if the target dies during routing.
        """
        job = job_of(state)
        route = {
            ChannelState.CLOSED: self._route_posture,
            ChannelState.WAIT_CONNECT: self._route_posture,
            ChannelState.WAIT_CREATE: self._route_wait_create,
            ChannelState.WAIT_CONFIG: self._route_wait_config,
            ChannelState.WAIT_SEND_CONFIG: self._route_config_via_our_request,
            ChannelState.WAIT_CONFIG_RSP: self._route_config_via_our_request,
            ChannelState.WAIT_CONFIG_REQ: self._route_wait_config_req,
            ChannelState.WAIT_CONFIG_REQ_RSP: self._route_wait_config_req_rsp,
            ChannelState.WAIT_IND_FINAL_RSP: self._route_wait_ind_final_rsp,
            ChannelState.OPEN: self._route_open,
            ChannelState.WAIT_DISCONNECT: self._route_wait_disconnect,
            ChannelState.WAIT_MOVE: self._route_move,
            ChannelState.WAIT_MOVE_CONFIRM: self._route_move,
        }[state]
        channel = route()
        return GuidedState(intended=state, job=job, channel=channel)

    def leave(self, guided: GuidedState) -> None:
        """Tear down whatever the route built (valid disconnections)."""
        self.teardown_all()

    def teardown_all(self) -> None:
        """Disconnect every channel the guide still holds."""
        while self._live:
            context = self._live.pop()
            try:
                self.queue.exchange(
                    disconnection_request(
                        dcid=context.target_cid,
                        scid=context.our_cid,
                        identifier=self.queue.take_identifier(),
                    )
                )
            except Exception:
                self._live.clear()
                raise

    # -- route primitives ------------------------------------------------------------

    def _take_cid(self) -> int:
        cid = self._next_cid
        self._next_cid += 1
        if self._next_cid > 0xFFFF:
            self._next_cid = 0x0050
        return cid

    def _connect(self, psm: int) -> ChannelContext | None:
        """Open a channel on *psm* with a valid Connection Request."""
        our_cid = self._take_cid()
        responses = self.queue.exchange(
            connection_request(psm=psm, scid=our_cid, identifier=self.queue.take_identifier())
        )
        target_cid = 0
        device_req_id = None
        for response in responses:
            if response.code == CommandCode.CONNECTION_RSP:
                if response.fields.get("result") == ConnectionResult.SUCCESS:
                    target_cid = response.fields.get("dcid", 0)
            elif response.code == CommandCode.CONFIGURATION_REQ:
                device_req_id = response.identifier
        if not target_cid:
            return None
        context = ChannelContext(
            our_cid=our_cid,
            target_cid=target_cid,
            psm=psm,
            device_config_req_id=device_req_id,
        )
        self._live.append(context)
        self._port_initiates[psm] = device_req_id is not None
        return context

    def _connect_preferring(self, initiating: bool) -> ChannelContext | None:
        """Connect on a port whose config behaviour matches *initiating*.

        Port behaviour is learned lazily: unknown ports are tried in scan
        order until one matches; the last successful connection is kept
        (and returned) even on a behaviour mismatch, so the campaign
        always has *a* channel in the configuration job.
        """
        fallback: ChannelContext | None = None
        for psm in self.scan.open_psms:
            known = self._port_initiates.get(psm)
            if known is not None and known != initiating:
                continue
            if fallback is not None:
                self._disconnect(fallback)
                fallback = None
            context = self._connect(psm)
            if context is None:
                continue
            matches = (context.device_config_req_id is not None) == initiating
            if matches:
                return context
            fallback = context
        return fallback

    def _disconnect(self, context: ChannelContext) -> None:
        if context in self._live:
            self._live.remove(context)
        self.queue.exchange(
            disconnection_request(
                dcid=context.target_cid,
                scid=context.our_cid,
                identifier=self.queue.take_identifier(),
            )
        )

    def _send_our_config_req(self, context: ChannelContext) -> None:
        """Send a valid Configuration Request; absorb the target's reply."""
        responses = self.queue.exchange(
            configuration_request(
                dcid=context.target_cid, identifier=self.queue.take_identifier()
            )
        )
        for response in responses:
            if response.code == CommandCode.CONFIGURATION_REQ:
                context.device_config_req_id = response.identifier

    def _answer_device_config(
        self, context: ChannelContext, result: int = ConfigResult.SUCCESS
    ) -> None:
        """Answer the target's own Configuration Request."""
        if context.device_config_req_id is None:
            return
        self.queue.exchange(
            configuration_response(
                scid=context.target_cid,
                result=result,
                identifier=context.device_config_req_id,
            )
        )
        if result == ConfigResult.SUCCESS:
            context.device_config_req_id = None

    # -- routes --------------------------------------------------------------------

    def _route_posture(self) -> ChannelContext | None:
        """CLOSED / WAIT_CONNECT: passive-open postures, nothing to set up."""
        return None

    def _route_wait_create(self) -> ChannelContext | None:
        """Demonstrate the Wait-Create path with a valid channel creation.

        AMP-capable targets accept it and hand back a channel; others
        refuse, and the creation job is fuzzed from the posture anyway.
        """
        our_cid = self._take_cid()
        responses = self.queue.exchange(
            create_channel_request(
                psm=self.scan.primary_psm,
                scid=our_cid,
                cont_id=0,
                identifier=self.queue.take_identifier(),
            )
        )
        for response in responses:
            if (
                response.code == CommandCode.CREATE_CHANNEL_RSP
                and response.fields.get("result") == ConnectionResult.SUCCESS
            ):
                context = ChannelContext(
                    our_cid=our_cid,
                    target_cid=response.fields.get("dcid", 0),
                    psm=self.scan.primary_psm,
                )
                self._live.append(context)
                return context
        return None

    def _route_wait_config(self) -> ChannelContext | None:
        """Connect and stop: the target sits in its first config state."""
        return self._connect_preferring(initiating=False)

    def _route_config_via_our_request(self) -> ChannelContext | None:
        """WAIT_SEND_CONFIG / WAIT_CONFIG_RSP: provoke via our request.

        On a passive port the target passes through WAIT_SEND_CONFIG and
        parks in WAIT_CONFIG_RSP waiting for our answer to its request.
        """
        context = self._connect_preferring(initiating=False)
        if context is None:
            return None
        self._send_our_config_req(context)
        return context

    def _route_wait_config_req(self) -> ChannelContext | None:
        """Answer the target's own request first: it parks awaiting ours."""
        context = self._connect_preferring(initiating=True)
        if context is None:
            return None
        if context.device_config_req_id is None:
            # Passive port: provoke the target's request with ours, then
            # answer it — the channel opens, the job is still exercised.
            self._send_our_config_req(context)
        self._answer_device_config(context)
        return context

    def _route_wait_config_req_rsp(self) -> ChannelContext | None:
        """A config-initiating port parks here immediately on accept."""
        return self._connect_preferring(initiating=True)

    def _route_wait_ind_final_rsp(self) -> ChannelContext | None:
        """Answer the target's request with result=PENDING (lockstep)."""
        context = self._connect_preferring(initiating=True)
        if context is None:
            return None
        if context.device_config_req_id is None:
            self._send_our_config_req(context)
        if context.device_config_req_id is not None:
            self.queue.exchange(
                configuration_response(
                    scid=context.target_cid,
                    result=ConfigResult.PENDING,
                    identifier=context.device_config_req_id,
                )
            )
        return context

    def _route_open(self) -> ChannelContext | None:
        """Complete configuration in both directions."""
        context = self._connect_preferring(initiating=False)
        if context is None:
            return None
        if context.device_config_req_id is None:
            self._send_our_config_req(context)
        self._answer_device_config(context)
        return context

    def _route_wait_disconnect(self) -> ChannelContext | None:
        """Reject the target's config request so it initiates disconnect."""
        context = self._connect_preferring(initiating=True)
        if context is None:
            return None
        if context.device_config_req_id is None:
            self._send_our_config_req(context)
        if context.device_config_req_id is not None:
            self._answer_device_config(context, result=ConfigResult.REJECTED)
            # If the stack initiated disconnect, the channel is half-dead;
            # keep the context so fuzzing targets the right CIDs and the
            # teardown's Disconnection Request is still valid-or-ignored.
        return context

    def _route_move(self) -> ChannelContext | None:
        """Open a channel and start a move (AMP stacks only)."""
        context = self._route_open()
        if context is None:
            return None
        self.queue.exchange(
            move_channel_request(
                icid=context.target_cid, identifier=self.queue.take_identifier()
            )
        )
        return context
