"""Job clustering of L2CAP states and the valid-command map.

Implements the *state guiding* data of the paper:

* Table I — the 19 states clustered into 7 jobs by their events,
  functions and actions.
* Table III — the valid commands mapped to each job.

The paper deliberately sets the command boundaries "slightly more
generously" than the specification, because real stacks accept commands
the spec says they should reject (§III.C). The generous map is what the
fuzzer uses. What a virtual stack accepts is decided by its engine's
handlers (:mod:`repro.stack.engine`); the state changes they make are
tabulated in :mod:`repro.l2cap.states`.
"""

from __future__ import annotations

import enum

from repro.l2cap.constants import CommandCode
from repro.l2cap.states import ALL_STATES, ChannelState


class Job(enum.Enum):
    """The seven jobs of paper Table I."""

    CLOSED = "Closed"
    CONNECTION = "Connection"
    CREATION = "Creation"
    CONFIGURATION = "Configuration"
    DISCONNECTION = "Disconnection"
    MOVE = "Move"
    OPEN = "Open"


#: Paper Table I: job → member states.
JOB_STATES: dict[Job, frozenset[ChannelState]] = {
    Job.CLOSED: frozenset({ChannelState.CLOSED}),
    Job.CONNECTION: frozenset(
        {ChannelState.WAIT_CONNECT, ChannelState.WAIT_CONNECT_RSP}
    ),
    Job.CREATION: frozenset({ChannelState.WAIT_CREATE, ChannelState.WAIT_CREATE_RSP}),
    Job.CONFIGURATION: frozenset(
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
    ),
    Job.DISCONNECTION: frozenset({ChannelState.WAIT_DISCONNECT}),
    Job.MOVE: frozenset(
        {
            ChannelState.WAIT_MOVE,
            ChannelState.WAIT_MOVE_RSP,
            ChannelState.WAIT_MOVE_CONFIRM,
            ChannelState.WAIT_CONFIRM_RSP,
        }
    ),
    Job.OPEN: frozenset({ChannelState.OPEN}),
}

#: Inverse of :data:`JOB_STATES`.
STATE_JOB: dict[ChannelState, Job] = {
    state: job for job, states in JOB_STATES.items() for state in states
}

assert set(STATE_JOB) == set(ALL_STATES), "every state belongs to exactly one job"


#: All 26 commands — the valid set for the Closed and Open jobs
#: ("All commands", paper Table III).
ALL_COMMANDS: frozenset[CommandCode] = frozenset(CommandCode)

#: Paper Table III: job → valid commands the fuzzer may send in that job.
JOB_VALID_COMMANDS: dict[Job, frozenset[CommandCode]] = {
    Job.CLOSED: ALL_COMMANDS,
    Job.CONNECTION: frozenset(
        {CommandCode.CONNECTION_REQ, CommandCode.CONNECTION_RSP}
    ),
    Job.CREATION: frozenset(
        {CommandCode.CREATE_CHANNEL_REQ, CommandCode.CREATE_CHANNEL_RSP}
    ),
    Job.CONFIGURATION: frozenset(
        {CommandCode.CONFIGURATION_REQ, CommandCode.CONFIGURATION_RSP}
    ),
    Job.DISCONNECTION: frozenset(
        {CommandCode.DISCONNECTION_REQ, CommandCode.DISCONNECTION_RSP}
    ),
    Job.MOVE: frozenset(
        {
            CommandCode.MOVE_CHANNEL_REQ,
            CommandCode.MOVE_CHANNEL_RSP,
            CommandCode.MOVE_CHANNEL_CONFIRMATION_REQ,
            CommandCode.MOVE_CHANNEL_CONFIRMATION_RSP,
        }
    ),
    Job.OPEN: ALL_COMMANDS,
}


def job_of(state: ChannelState) -> Job:
    """Return the job a state belongs to (paper Table I)."""
    return STATE_JOB[state]
