"""Tests for the 19-state machine (paper Fig. 2 and Table II).

The transition table in :mod:`repro.l2cap.states` follows the engine,
which does not read it. :class:`TestEngineFollowsTable` checks the two
against each other: random well-formed command sequences, addressed to
the channels the engine allocated, drive an engine with every Table V
profile's personality, and each handler call's per-channel visits must
parse as one table row for the command (plus the stack's own
Configuration Request), answered with the rows' actions. Every row must
be taken by some sequence.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.l2cap.constants import CommandCode, ConfigResult, Psm
from repro.l2cap.packets import (
    configuration_request,
    configuration_response,
    connection_request,
    create_channel_request,
    default_packet,
    disconnection_request,
    move_channel_request,
    mtu_option,
)
from repro.l2cap.states import (
    ACCEPTOR_REACHABLE_STATES,
    ALL_STATES,
    CONFIGURATION_STATES,
    INITIATOR_ONLY_STATES,
    ROUTE_GRAPH,
    STEPS,
    TABLE2_EVENTS,
    TRANSITIONS,
    WAIT_CONNECT_TABLE,
    ChannelState,
)
from repro.testbed.profiles import ALL_PROFILES

from tests.stack.engine_helpers import make_engine


class TestStateInventory:
    def test_there_are_19_states(self):
        assert len(ALL_STATES) == 19

    def test_initiator_only_states_are_6(self):
        assert len(INITIATOR_ONLY_STATES) == 6

    def test_acceptor_reachable_states_are_13(self):
        """The paper's maximum master-side coverage (Fig. 10)."""
        assert len(ACCEPTOR_REACHABLE_STATES) == 13

    def test_partition_is_complete(self):
        assert INITIATOR_ONLY_STATES | ACCEPTOR_REACHABLE_STATES == set(ALL_STATES)
        assert not (INITIATOR_ONLY_STATES & ACCEPTOR_REACHABLE_STATES)

    def test_configuration_cluster_has_8_states(self):
        assert len(CONFIGURATION_STATES) == 8

    def test_only_disconnection_closes_a_channel(self):
        closing = {event for _, event, _, to in STEPS if to is ChannelState.CLOSED}
        assert closing == {CommandCode.DISCONNECTION_REQ, CommandCode.DISCONNECTION_RSP}

    def test_route_graph_stays_inside_the_reachable_states(self):
        for state, targets in ROUTE_GRAPH.items():
            assert {state} | targets <= ACCEPTOR_REACHABLE_STATES


class TestTable2:
    def test_table2_has_eleven_rows(self):
        assert len(WAIT_CONNECT_TABLE) == 11
        assert [event for event, _, _ in WAIT_CONNECT_TABLE] == list(TABLE2_EVENTS)

    def test_only_connect_req_transitions(self):
        transitioning = [row for row in WAIT_CONNECT_TABLE if row[2] is not None]
        assert transitioning == [
            (CommandCode.CONNECTION_REQ, CommandCode.CONNECTION_RSP, ChannelState.WAIT_CONFIG)
        ]

    def test_everything_else_rejected(self):
        for event, action, to in WAIT_CONNECT_TABLE:
            if event != CommandCode.CONNECTION_REQ:
                assert action == CommandCode.COMMAND_REJECT
                assert to is None


# ---------------------------------------------------------------------------
# The engine against the table
# ---------------------------------------------------------------------------

#: Per-profile personalities, keyed by device id. Each engine offers an
#: open passive service (SDP) and an open config-initiating one (AVDTP).
PERSONALITIES = {profile.device_id: profile.personality for profile in ALL_PROFILES}

#: Commands that no row reacts to: they must never change a state.
_STATELESS = (
    CommandCode.COMMAND_REJECT,
    CommandCode.CONNECTION_RSP,
    CommandCode.ECHO_REQ,
    CommandCode.INFORMATION_REQ,
    CommandCode.CREATE_CHANNEL_RSP,
    CommandCode.MOVE_CHANNEL_RSP,
    CommandCode.MOVE_CHANNEL_CONFIRMATION_RSP,
)

_CONFIG_RESULTS = (
    ConfigResult.SUCCESS,
    ConfigResult.PENDING,
    ConfigResult.REJECTED,
    ConfigResult.UNACCEPTABLE_PARAMETERS,
)

#: Command kinds, config exchanges twice as likely as the rest.
_KINDS = (
    "connect",
    "create",
    "config_req",
    "config_req",
    "config_rsp",
    "config_rsp",
    "disconnect_req",
    "disconnect_rsp",
    "move",
    "move_confirm",
    "stateless",
)

#: (kind, channel, variant) triples: *channel* counts back from the
#: newest channel (the newest twice as likely), *variant* picks the port,
#: the result code, the options (3: an MTU below the minimum) or the
#: command.
_POOL = tuple(
    itertools.product(_KINDS, (0, 0, 1, 2), range(len(_CONFIG_RESULTS)))
)


def _random_commands(seed: int) -> list[tuple[str, int, int]]:
    rng = random.Random(seed)
    return [rng.choice(_POOL) for _ in range(rng.randint(20, 60))]


#: Command sequences, each drawn uniformly from :data:`_POOL` under a
#: hypothesis-chosen seed. Lists drawn element by element from
#: hypothesis come out short and repetitive and leave the deep rows
#: (move, pending-then-success) untaken at 200 examples per profile.
_commands = st.integers(min_value=0, max_value=2**32 - 1).map(_random_commands)


def _build(engine, kind: str, channel: int, variant: int, scid: int):
    """A well-formed command, addressed to one of *engine*'s channels."""
    blocks = list(engine.channels.blocks())
    block = blocks[-1 - channel % len(blocks)] if blocks else None
    local = block.local_cid if block else 0x0040
    remote = block.remote_cid if block else 0x0040
    psm = (Psm.SDP, Psm.AVDTP)[variant % 2]
    if kind == "connect":
        return connection_request(psm=psm, scid=scid)
    if kind == "create":
        return create_channel_request(psm=psm, scid=scid, cont_id=0)
    if kind == "config_req":
        options = [mtu_option(16)] if variant == 3 else None
        return configuration_request(dcid=local, options=options)
    if kind == "config_rsp":
        result = _CONFIG_RESULTS[variant]
        return configuration_response(scid=local, result=result)
    if kind == "disconnect_req":
        return disconnection_request(dcid=local, scid=remote)
    if kind == "disconnect_rsp":
        return default_packet(CommandCode.DISCONNECTION_RSP, dcid=remote, scid=local)
    if kind == "move":
        return move_channel_request(icid=local)
    if kind == "move_confirm":
        return default_packet(CommandCode.MOVE_CHANNEL_CONFIRMATION_REQ, icid=local)
    return default_packet(_STATELESS[(4 * channel + variant) % len(_STATELESS)])


def _parse(state, event, visits):
    """The rows whose chains spell *visits* from *state*: one row for
    *event*, then rows of the stack's own requests. None if none do."""
    if not visits:
        return []
    for row in TRANSITIONS:
        start, row_event, _, to, via = row
        chain = (*via, to)
        if start is state and row_event == event and tuple(visits[: len(chain)]) == chain:
            rest = _parse(to, None, visits[len(chain) :])
            if rest is not None:
                return [row, *rest]
    return None


def _replay(personality, commands) -> set:
    """Drive a fresh engine; check every handler call against the
    table; return the rows taken."""
    engine = make_engine(personality, armed=False)
    last: dict[int, ChannelState] = {}
    taken = set()
    for number, (kind, channel, variant) in enumerate(commands):
        packet = _build(engine, kind, channel, variant, scid=0x0100 + number)
        before = {block.local_cid: block.state for block in engine.channels.blocks()}
        mark = len(engine.state_history)
        responses = engine.handle_l2cap(packet)
        by_cid: dict[int, list[ChannelState]] = {}
        for visit in engine.state_history[mark:]:
            by_cid.setdefault(visit.local_cid, []).append(visit.state)
        after = {block.local_cid: block.state for block in engine.channels.blocks()}
        for cid, state in before.items():
            if cid not in by_cid:
                assert after.get(cid) is state, f"{packet}: silent state change"
        for cid, visits in by_cid.items():
            start = last.get(cid, ChannelState.CLOSED)
            rows = _parse(start, packet.code, visits)
            assert rows is not None, (
                f"{packet.command_name} in {start.value} visited "
                f"{[state.value for state in visits]}: no table row"
            )
            actions = [row[2] for row in rows if row[2] is not None]
            assert [response.code for response in responses] == actions, (
                f"{packet.command_name} in {start.value}: answered "
                f"{[response.command_name for response in responses]}"
            )
            taken.update(rows)
            last[cid] = visits[-1]
    return taken


def _explore(personality, taken: set) -> None:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_commands)
    def engine_follows_table(commands):
        taken.update(_replay(personality, commands))

    engine_follows_table()


class TestEngineFollowsTable:
    @pytest.mark.parametrize("device_id", sorted(PERSONALITIES))
    def test_every_state_change_is_a_table_row(self, device_id):
        _explore(PERSONALITIES[device_id], set())

    def test_every_row_is_taken(self):
        taken: set = set()
        for personality in PERSONALITIES.values():
            _explore(personality, taken)
        missing = [row for row in TRANSITIONS if row not in taken]
        assert not missing
