"""The Bluetooth 5.2 L2CAP channel state machine (paper Fig. 2).

L2CAP is channel-oriented: every connection-oriented channel runs its own
instance of a 19-state machine. This module defines the state enum and
the one table of the transitions the virtual host stack takes as an
acceptor (:data:`TRANSITIONS`). Everything else about the machine is read
off that table: the targeted strategy's route graph, the 13
acceptor-reachable states and the WAIT_CONNECT rows the paper prints as
Table II. The engine's handlers in :mod:`repro.stack.engine` do not read
the table; a property test drives them with random command sequences
and checks that every state change they make is a step of the table.

Terminology note — *initiator* vs *acceptor* states. Several states are
only entered by the side that originated an exchange (e.g. a device only
reaches WAIT_CONNECT_RSP after *sending* a Connection Request). When the
fuzzer is the master and the target a passive slave, the target can never
enter those six initiator-side states; this is exactly the coverage
ceiling the paper reports (13 of 19 states, §IV.D and §V limitation 4).
"""

from __future__ import annotations

import enum

from repro.l2cap.constants import CommandCode


class ChannelState(enum.Enum):
    """The 19 L2CAP channel states of Bluetooth 5.2 (paper Fig. 2)."""

    CLOSED = "CLOSED"
    WAIT_CONNECT = "WAIT_CONNECT"
    WAIT_CONNECT_RSP = "WAIT_CONNECT_RSP"
    WAIT_CREATE = "WAIT_CREATE"
    WAIT_CREATE_RSP = "WAIT_CREATE_RSP"
    WAIT_CONFIG = "WAIT_CONFIG"
    WAIT_CONFIG_RSP = "WAIT_CONFIG_RSP"
    WAIT_CONFIG_REQ = "WAIT_CONFIG_REQ"
    WAIT_CONFIG_REQ_RSP = "WAIT_CONFIG_REQ_RSP"
    WAIT_SEND_CONFIG = "WAIT_SEND_CONFIG"
    WAIT_IND_FINAL_RSP = "WAIT_IND_FINAL_RSP"
    WAIT_FINAL_RSP = "WAIT_FINAL_RSP"
    WAIT_CONTROL_IND = "WAIT_CONTROL_IND"
    WAIT_DISCONNECT = "WAIT_DISCONNECT"
    WAIT_MOVE = "WAIT_MOVE"
    WAIT_MOVE_RSP = "WAIT_MOVE_RSP"
    WAIT_MOVE_CONFIRM = "WAIT_MOVE_CONFIRM"
    WAIT_CONFIRM_RSP = "WAIT_CONFIRM_RSP"
    OPEN = "OPEN"


ALL_STATES: tuple[ChannelState, ...] = tuple(ChannelState)
assert len(ALL_STATES) == 19, "Bluetooth 5.2 defines 19 L2CAP states"


_S = ChannelState
_C = CommandCode

#: The acceptor's channel transitions, one row per
#: ``(from, event, action, to, via)``:
#:
#: * *event* is the command received from the peer, or None for the
#:   stack's own Configuration Request;
#: * *action* is the command the stack sends (None = nothing);
#: * *via* lists the states the engine records in passing within the same
#:   handler call, between *from* and *to*.
#:
#: A (from, event) pair missing from the table is rejected or ignored
#: without a state change. Several rows may share a (from, event) pair:
#: the result code, the personality flags and the configuration
#: bookkeeping pick among them. The table follows the engine, quirks
#: included (see the WAIT_DISCONNECT rows).
TRANSITIONS: tuple[tuple, ...] = (
    # A service in passive open accepts a Connection Request (the
    # WAIT_CONNECT row of Table II); AMP stacks accept Create Channel too.
    (_S.CLOSED, _C.CONNECTION_REQ, _C.CONNECTION_RSP, _S.WAIT_CONFIG, (_S.WAIT_CONNECT,)),
    (_S.CLOSED, _C.CREATE_CHANNEL_REQ, _C.CREATE_CHANNEL_RSP, _S.WAIT_CONFIG, (_S.WAIT_CREATE,)),
    # The stack's own Configuration Request: at once for a service that
    # initiates configuration, else right after answering the peer's.
    (_S.WAIT_CONFIG, None, _C.CONFIGURATION_REQ, _S.WAIT_CONFIG_REQ_RSP, ()),
    (_S.WAIT_SEND_CONFIG, None, _C.CONFIGURATION_REQ, _S.WAIT_CONFIG_RSP, ()),
    # The peer's acceptable Configuration Request (unacceptable options
    # are answered in place). OPEN reconfigures through WAIT_CONFIG.
    (_S.WAIT_CONFIG, _C.CONFIGURATION_REQ, _C.CONFIGURATION_RSP, _S.WAIT_SEND_CONFIG, ()),
    (_S.OPEN, _C.CONFIGURATION_REQ, _C.CONFIGURATION_RSP, _S.WAIT_SEND_CONFIG, (_S.WAIT_CONFIG,)),
    (_S.WAIT_CONFIG_REQ_RSP, _C.CONFIGURATION_REQ, _C.CONFIGURATION_RSP, _S.WAIT_CONFIG_RSP, ()),
    (_S.WAIT_CONFIG_RSP, _C.CONFIGURATION_REQ, _C.CONFIGURATION_RSP, _S.WAIT_CONFIG_RSP, ()),
    (_S.WAIT_IND_FINAL_RSP, _C.CONFIGURATION_REQ, _C.CONFIGURATION_RSP, _S.WAIT_CONFIG_RSP, ()),
    (_S.WAIT_CONFIG_REQ, _C.CONFIGURATION_REQ, _C.CONFIGURATION_RSP, _S.OPEN, ()),
    # The peer's answer to our Configuration Request: pending (where the
    # personality honours it), rejected (answered with our own Disconnect
    # Request where the personality does that; else no change) or success.
    (_S.WAIT_CONFIG_REQ_RSP, _C.CONFIGURATION_RSP, None, _S.WAIT_IND_FINAL_RSP, ()),
    (_S.WAIT_CONFIG_REQ_RSP, _C.CONFIGURATION_RSP, _C.DISCONNECTION_REQ, _S.WAIT_DISCONNECT, ()),
    (_S.WAIT_CONFIG_REQ_RSP, _C.CONFIGURATION_RSP, None, _S.WAIT_CONFIG_REQ, ()),
    (_S.WAIT_CONFIG_RSP, _C.CONFIGURATION_RSP, None, _S.WAIT_IND_FINAL_RSP, ()),
    (_S.WAIT_CONFIG_RSP, _C.CONFIGURATION_RSP, _C.DISCONNECTION_REQ, _S.WAIT_DISCONNECT, ()),
    (_S.WAIT_CONFIG_RSP, _C.CONFIGURATION_RSP, None, _S.OPEN, ()),
    (_S.WAIT_IND_FINAL_RSP, _C.CONFIGURATION_RSP, None, _S.WAIT_IND_FINAL_RSP, ()),
    (_S.WAIT_IND_FINAL_RSP, _C.CONFIGURATION_RSP, _C.DISCONNECTION_REQ, _S.WAIT_DISCONNECT, ()),
    (_S.WAIT_IND_FINAL_RSP, _C.CONFIGURATION_RSP, None, _S.WAIT_CONFIG_REQ, ()),
    (_S.WAIT_IND_FINAL_RSP, _C.CONFIGURATION_RSP, None, _S.OPEN, ()),
    # WAIT_DISCONNECT still takes Configuration Responses: our Disconnect
    # Request is outstanding, yet the answer to our Configuration Request
    # is processed as in WAIT_CONFIG_RSP and can reopen the channel.
    (_S.WAIT_DISCONNECT, _C.CONFIGURATION_RSP, None, _S.WAIT_IND_FINAL_RSP, ()),
    (_S.WAIT_DISCONNECT, _C.CONFIGURATION_RSP, _C.DISCONNECTION_REQ, _S.WAIT_DISCONNECT, ()),
    (_S.WAIT_DISCONNECT, _C.CONFIGURATION_RSP, None, _S.WAIT_CONFIG_REQ, ()),
    (_S.WAIT_DISCONNECT, _C.CONFIGURATION_RSP, None, _S.OPEN, ()),
    (_S.WAIT_DISCONNECT, _C.DISCONNECTION_RSP, None, _S.CLOSED, ()),
    # The peer disconnects a channel in any state a channel rests in.
    *(
        (state, _C.DISCONNECTION_REQ, _C.DISCONNECTION_RSP, _S.CLOSED, ())
        for state in (
            _S.WAIT_CONFIG,
            _S.WAIT_CONFIG_REQ_RSP,
            _S.WAIT_CONFIG_RSP,
            _S.WAIT_CONFIG_REQ,
            _S.WAIT_IND_FINAL_RSP,
            _S.WAIT_DISCONNECT,
            _S.OPEN,
            _S.WAIT_MOVE_CONFIRM,
        )
    ),
    # AMP move: accepted in OPEN only, answered at once.
    (_S.OPEN, _C.MOVE_CHANNEL_REQ, _C.MOVE_CHANNEL_RSP, _S.WAIT_MOVE_CONFIRM, (_S.WAIT_MOVE,)),
    (
        _S.WAIT_MOVE_CONFIRM,
        _C.MOVE_CHANNEL_CONFIRMATION_REQ,
        _C.MOVE_CHANNEL_CONFIRMATION_RSP,
        _S.OPEN,
        (),
    ),
)


def _steps():
    """(state, event, action, next) for every consecutive pair of a row's
    visit chain ``from → via… → to``."""
    for state, event, action, to, via in TRANSITIONS:
        chain = (state, *via, to)
        for before, after in zip(chain, chain[1:]):
            yield before, event, action, after


#: Every state change the table allows, one step per visit pair.
STEPS: frozenset[tuple] = frozenset(_steps())


def _route_graph() -> dict[ChannelState, frozenset[ChannelState]]:
    edges: dict[ChannelState, set[ChannelState]] = {}
    for state, _, _, to, _ in TRANSITIONS:
        edges.setdefault(state, set()).add(to)
    for state, _, _, to in STEPS:
        edges.setdefault(state, set()).add(to)
    return {state: frozenset(targets) for state, targets in edges.items()}


#: State → the states one table row or one step of a row leads to: the
#: graph the targeted strategy plans its routes over.
ROUTE_GRAPH: dict[ChannelState, frozenset[ChannelState]] = _route_graph()


def _reachable_from_closed() -> frozenset[ChannelState]:
    reached = {_S.CLOSED}
    frontier = [_S.CLOSED]
    while frontier:
        for neighbour in ROUTE_GRAPH.get(frontier.pop(), ()):
            if neighbour not in reached:
                reached.add(neighbour)
                frontier.append(neighbour)
    return frozenset(reached)


#: States an external master can drive a slave target into: those the
#: table reaches from CLOSED.
ACCEPTOR_REACHABLE_STATES = _reachable_from_closed()
assert len(ACCEPTOR_REACHABLE_STATES) == 13

#: States a device only enters when it *initiates* an exchange. A passive
#: slave probed by an external master never reaches these — the structural
#: reason the best possible master-side fuzzer coverage is 13 states.
INITIATOR_ONLY_STATES = frozenset(ALL_STATES) - ACCEPTOR_REACHABLE_STATES

#: Configuration-phase states: a channel in any of these is mid-configuration.
CONFIGURATION_STATES = frozenset(
    {
        ChannelState.WAIT_CONFIG,
        ChannelState.WAIT_CONFIG_RSP,
        ChannelState.WAIT_CONFIG_REQ,
        ChannelState.WAIT_CONFIG_REQ_RSP,
        ChannelState.WAIT_SEND_CONFIG,
        ChannelState.WAIT_IND_FINAL_RSP,
        ChannelState.WAIT_FINAL_RSP,
        ChannelState.WAIT_CONTROL_IND,
    }
)


# ---------------------------------------------------------------------------
# Paper Table II — WAIT_CONNECT events and actions
# ---------------------------------------------------------------------------

#: The commands paper Table II lists for WAIT_CONNECT, in its order.
TABLE2_EVENTS: tuple[CommandCode, ...] = (
    _C.CONNECTION_REQ,
    _C.CONNECTION_RSP,
    _C.CONFIGURATION_REQ,
    _C.CONFIGURATION_RSP,
    _C.DISCONNECTION_RSP,
    _C.CREATE_CHANNEL_REQ,
    _C.CREATE_CHANNEL_RSP,
    _C.MOVE_CHANNEL_REQ,
    _C.MOVE_CHANNEL_RSP,
    _C.MOVE_CHANNEL_CONFIRMATION_REQ,
    _C.MOVE_CHANNEL_CONFIRMATION_RSP,
)


def _wait_connect_row(
    event: CommandCode,
) -> tuple[CommandCode, CommandCode, ChannelState | None]:
    for state, step_event, action, after in STEPS:
        if state is _S.WAIT_CONNECT and step_event == event:
            return event, action, after
    return event, _C.COMMAND_REJECT, None


#: Table II read off the steps that leave WAIT_CONNECT: per event, the
#: command the stack answers with and the next state (None = no change;
#: every command without a step is rejected).
WAIT_CONNECT_TABLE: tuple[tuple, ...] = tuple(
    _wait_connect_row(event) for event in TABLE2_EVENTS
)
