"""Tests for phase 2 — state guiding."""

from __future__ import annotations

import pytest

from repro.core.state_guiding import STATE_PLAN, StateGuide
from repro.core.target_scanning import TargetScanner
from repro.l2cap.jobs import Job
from repro.l2cap.states import (
    ACCEPTOR_REACHABLE_STATES,
    ChannelState,
    INITIATOR_ONLY_STATES,
)
from repro.stack.vendors import RTKIT

from tests.conftest import make_rig


def _guide(device, queue):
    scan = TargetScanner(queue, device.inquiry, device.services.all_records).scan()
    return StateGuide(queue, scan)


class TestStatePlan:
    def test_plan_is_the_13_acceptor_reachable_states(self):
        assert set(STATE_PLAN) == ACCEPTOR_REACHABLE_STATES
        assert len(STATE_PLAN) == 13

    def test_plan_never_targets_initiator_states(self):
        assert not set(STATE_PLAN) & INITIATOR_ONLY_STATES

    def test_plan_walks_shallow_to_deep(self):
        assert STATE_PLAN[0] is ChannelState.CLOSED
        assert STATE_PLAN.index(ChannelState.WAIT_CONFIG) < STATE_PLAN.index(
            ChannelState.OPEN
        )
        assert STATE_PLAN.index(ChannelState.OPEN) < STATE_PLAN.index(
            ChannelState.WAIT_MOVE
        )


class TestRoutes:
    @pytest.mark.parametrize(
        "state,expected_device_state",
        [
            (ChannelState.WAIT_CONFIG, ChannelState.WAIT_CONFIG),
            (ChannelState.WAIT_CONFIG_RSP, ChannelState.WAIT_CONFIG_RSP),
            (ChannelState.WAIT_CONFIG_REQ, ChannelState.WAIT_CONFIG_REQ),
            (ChannelState.WAIT_CONFIG_REQ_RSP, ChannelState.WAIT_CONFIG_REQ_RSP),
            (ChannelState.WAIT_IND_FINAL_RSP, ChannelState.WAIT_IND_FINAL_RSP),
            (ChannelState.OPEN, ChannelState.OPEN),
            (ChannelState.WAIT_DISCONNECT, ChannelState.WAIT_DISCONNECT),
            (ChannelState.WAIT_MOVE_CONFIRM, ChannelState.WAIT_MOVE_CONFIRM),
        ],
    )
    def test_route_parks_device_in_state(self, state, expected_device_state):
        device, _, queue = make_rig()
        guide = _guide(device, queue)
        guided = guide.enter(state)
        assert guided.channel is not None
        live = device.engine.channels.live_channels()
        assert any(block.state is expected_device_state for block in live)
        guide.leave(guided)

    def test_posture_states_need_no_channel(self):
        device, _, queue = make_rig()
        guide = _guide(device, queue)
        for state in (ChannelState.CLOSED, ChannelState.WAIT_CONNECT):
            guided = guide.enter(state)
            assert guided.channel is None

    def test_wait_create_uses_valid_create_channel(self):
        device, _, queue = make_rig()
        guide = _guide(device, queue)
        guided = guide.enter(ChannelState.WAIT_CREATE)
        assert guided.channel is not None  # BlueDroid supports AMP
        visited = {visit.state for visit in device.engine.state_history}
        assert ChannelState.WAIT_CREATE in visited
        guide.leave(guided)

    def test_wait_create_falls_back_without_amp(self):
        device, _, queue = make_rig(personality=RTKIT)
        guide = _guide(device, queue)
        guided = guide.enter(ChannelState.WAIT_CREATE)
        assert guided.channel is None
        assert guided.job is Job.CREATION

    def test_jobs_match_table1(self):
        device, _, queue = make_rig()
        guide = _guide(device, queue)
        guided = guide.enter(ChannelState.WAIT_CONFIG_RSP)
        assert guided.job is Job.CONFIGURATION
        guide.leave(guided)

    def test_teardown_clears_channels(self):
        device, _, queue = make_rig()
        guide = _guide(device, queue)
        guided = guide.enter(ChannelState.OPEN)
        assert len(device.engine.channels) == 1
        guide.leave(guided)
        assert len(device.engine.channels) == 0

    def test_move_without_amp_falls_back_to_open(self):
        device, _, queue = make_rig(personality=RTKIT)
        guide = _guide(device, queue)
        guided = guide.enter(ChannelState.WAIT_MOVE)
        assert guided.channel is not None
        live = device.engine.channels.live_channels()
        assert live[0].state is ChannelState.OPEN  # move refused, still open
        guide.leave(guided)

    def test_full_plan_walk_covers_13_device_states(self):
        """Ground truth: walking the plan drives the device through every
        acceptor-reachable state (cross-check for the PRETT inference)."""
        device, _, queue = make_rig()
        guide = _guide(device, queue)
        for state in guide.plan():
            guided = guide.enter(state)
            guide.leave(guided)
        visited = {visit.state for visit in device.engine.state_history}
        assert ACCEPTOR_REACHABLE_STATES <= visited | {ChannelState.CLOSED}
