"""Unit tests for the exploration strategies."""

from __future__ import annotations

import hashlib

import pytest

from repro.core.config import FuzzConfig
from repro.core.fuzzer import L2Fuzz
from repro.core.state_guiding import STATE_PLAN
from repro.core.strategies import (
    ROUTE_DEPTH,
    STRATEGY_NAMES,
    BreadthFirstStrategy,
    DepthFirstStrategy,
    ExplorationStrategy,
    SequentialStrategy,
    TargetedStrategy,
    bfs_route,
    make_strategy,
)
from repro.l2cap.states import ChannelState
from repro.testbed.profiles import D2
from repro.testbed.session import FuzzSession

from tests.conftest import make_rig

_S = ChannelState
_CONFIG = (_S.CLOSED, _S.WAIT_CONFIG)
_VIA_REQ_RSP = _CONFIG + (_S.WAIT_CONFIG_REQ_RSP,)
_TO_OPEN = _CONFIG + (_S.WAIT_SEND_CONFIG, _S.WAIT_CONFIG_RSP, _S.OPEN)

#: The targeted strategy's route to every plan state. A changed route
#: changes what targeted fleet sweeps send.
PINNED_ROUTES: dict[ChannelState, tuple[ChannelState, ...]] = {
    _S.CLOSED: (_S.CLOSED,),
    _S.WAIT_CONNECT: (_S.CLOSED, _S.WAIT_CONNECT),
    _S.WAIT_CREATE: (_S.CLOSED, _S.WAIT_CREATE),
    _S.WAIT_CONFIG: _CONFIG,
    _S.WAIT_SEND_CONFIG: _CONFIG + (_S.WAIT_SEND_CONFIG,),
    _S.WAIT_CONFIG_RSP: _CONFIG + (_S.WAIT_SEND_CONFIG, _S.WAIT_CONFIG_RSP),
    _S.WAIT_CONFIG_REQ: _VIA_REQ_RSP + (_S.WAIT_CONFIG_REQ,),
    _S.WAIT_CONFIG_REQ_RSP: _VIA_REQ_RSP,
    _S.WAIT_IND_FINAL_RSP: _VIA_REQ_RSP + (_S.WAIT_IND_FINAL_RSP,),
    _S.OPEN: _TO_OPEN,
    _S.WAIT_DISCONNECT: _VIA_REQ_RSP + (_S.WAIT_DISCONNECT,),
    _S.WAIT_MOVE: _TO_OPEN + (_S.WAIT_MOVE,),
    _S.WAIT_MOVE_CONFIRM: _TO_OPEN + (_S.WAIT_MOVE_CONFIRM,),
}

#: SHA-256 of the sent packets (wire bytes, in send order) of a
#: 1,500-packet disarmed D2 ``targeted`` campaign aimed at each plan
#: state. WAIT_MOVE and WAIT_MOVE_CONFIRM share a digest: the guide
#: parks the target the same way for both and both belong to the Move
#: job, so the two campaigns send the same packets.
PINNED_TARGETED_DIGESTS: dict[ChannelState, str] = {
    _S.CLOSED: "ace0cf3bc443608e788218252d87f47af06ba72534a18efc61246cebe388a204",
    _S.WAIT_CONNECT: "36b9570a33c462c7ddfab976dce97fae9e266f29eeb727fd875ee64688647d99",
    _S.WAIT_CREATE: "fcfae77b497e37ad2281ccb750272d70d70e1709fd9813738dca25690983df9e",
    _S.WAIT_CONFIG: "f07970d205aa01706f1a95d041d073fafdee469b7b8b7cd9d40022ab618a6ae9",
    _S.WAIT_SEND_CONFIG: "373b6af74ae1c3c59e2ff0a5b796a8667ad529e3bf22a6875476fbe16626b566",
    _S.WAIT_CONFIG_RSP: "160f9c5eb3a7d6ea7289a28e0f8523a27ffb49ccfebbd699ed5962a8b564ceb0",
    _S.WAIT_CONFIG_REQ: "fe903754ec9d959fe091c78a59303f2ceac7808cf90b52b18f1146e76660e505",
    _S.WAIT_CONFIG_REQ_RSP: "beb56642e94b6b986752197edabe41d020afadc89af213a1a3efcfc2b16993fe",
    _S.WAIT_IND_FINAL_RSP: "eab8d613c1f301b0edaff19bd3562996ad57be1b950f3a45e4cfe30521166601",
    _S.OPEN: "c0a7c486d0c922e0da6916d36dfbc5457b80c94afa0c39c89091b59301de9881",
    _S.WAIT_DISCONNECT: "78ccd7102b0f56423cef901142a01d5c57f20d8a978d502e75069ae3b9d62856",
    _S.WAIT_MOVE: "f834b851f7b7e68152f39e6ecee4c6fa99f1b90c7f3c00b201b0ac1d9eec2fb3",
    _S.WAIT_MOVE_CONFIRM: "f834b851f7b7e68152f39e6ecee4c6fa99f1b90c7f3c00b201b0ac1d9eec2fb3",
}


def _all_strategies():
    return [make_strategy(name) for name in STRATEGY_NAMES]


class TestRegistry:
    def test_all_names_resolve(self):
        for strategy in _all_strategies():
            assert isinstance(strategy, ExplorationStrategy)

    def test_names_round_trip(self):
        for name in STRATEGY_NAMES:
            assert make_strategy(name).name == name

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            make_strategy("depth_breadth_first")

    def test_targeted_accepts_custom_target(self):
        strategy = make_strategy("targeted", target=ChannelState.WAIT_DISCONNECT)
        assert strategy.target is ChannelState.WAIT_DISCONNECT


class TestDeterminism:
    def test_plans_are_deterministic_across_instances(self):
        visits = {ChannelState.CLOSED: 2, ChannelState.OPEN: 1}
        for name in STRATEGY_NAMES:
            first = make_strategy(name).plan(STATE_PLAN, visits)
            second = make_strategy(name).plan(STATE_PLAN, dict(visits))
            assert first == second

    def test_plans_are_permutations_or_subsets_of_base(self):
        for strategy in _all_strategies():
            plan = strategy.plan(STATE_PLAN, {})
            assert set(plan) <= set(STATE_PLAN)
            assert len(plan) == len(set(plan))


class TestSequential:
    def test_plan_is_base_plan_verbatim(self):
        strategy = SequentialStrategy()
        assert strategy.plan(STATE_PLAN, {}) == STATE_PLAN
        assert (
            strategy.plan(STATE_PLAN, {state: 9 for state in STATE_PLAN})
            == STATE_PLAN
        )

    def test_budget_unweighted(self):
        strategy = SequentialStrategy()
        for state in STATE_PLAN:
            assert strategy.packets_per_command(state, 5) == 5


class TestBreadthFirst:
    def test_unvisited_plan_keeps_base_order(self):
        assert BreadthFirstStrategy().plan(STATE_PLAN, {}) == STATE_PLAN

    def test_least_visited_states_come_first(self):
        visits = {state: 1 for state in STATE_PLAN}
        visits[ChannelState.WAIT_MOVE] = 0
        visits[ChannelState.OPEN] = 0
        plan = BreadthFirstStrategy().plan(STATE_PLAN, visits)
        assert set(plan[:2]) == {ChannelState.OPEN, ChannelState.WAIT_MOVE}
        # Ties resolve in base-plan order: OPEN precedes WAIT_MOVE.
        assert plan[0] is ChannelState.OPEN

    def test_every_state_visited_before_any_second_visit(self):
        """The breadth guarantee survives budget-truncated sweeps."""
        strategy = BreadthFirstStrategy()
        visits: dict[ChannelState, int] = {}
        sequence: list[ChannelState] = []
        prefix_lengths = (1, 3, 2, 5, 4, 7, 6, 13, 2, 9)
        for length in prefix_lengths:
            plan = strategy.plan(STATE_PLAN, visits)
            for state in plan[:length]:
                sequence.append(state)
                visits[state] = visits.get(state, 0) + 1
        assert len(sequence) >= 2 * len(STATE_PLAN)
        first_repeat = next(
            index
            for index, state in enumerate(sequence)
            if state in sequence[:index]
        )
        assert set(sequence[:first_repeat]) == set(STATE_PLAN)


class TestDepthFirst:
    def test_deepest_routes_first(self):
        plan = DepthFirstStrategy().plan(STATE_PLAN, {})
        depths = [ROUTE_DEPTH[state] for state in plan]
        assert depths == sorted(depths, reverse=True)
        assert plan[0] in (ChannelState.WAIT_MOVE, ChannelState.WAIT_MOVE_CONFIRM)
        assert plan[-1] in (ChannelState.CLOSED, ChannelState.WAIT_CONNECT)

    def test_plan_is_full_permutation(self):
        plan = DepthFirstStrategy().plan(STATE_PLAN, {})
        assert sorted(plan, key=lambda s: s.value) == sorted(
            STATE_PLAN, key=lambda s: s.value
        )


class TestTargeted:
    def test_plan_is_bfs_route_to_target(self):
        strategy = TargetedStrategy(target=ChannelState.OPEN)
        plan = strategy.plan(STATE_PLAN, {})
        assert plan[0] is ChannelState.CLOSED
        assert plan[-1] is ChannelState.OPEN
        assert len(plan) < len(STATE_PLAN)

    def test_budget_concentrates_on_target(self):
        strategy = TargetedStrategy(target=ChannelState.OPEN, focus_factor=4)
        assert strategy.packets_per_command(ChannelState.OPEN, 5) == 20
        assert strategy.packets_per_command(ChannelState.CLOSED, 5) == 2
        assert strategy.packets_per_command(ChannelState.CLOSED, 1) == 1

    def test_focus_factor_validated(self):
        with pytest.raises(ValueError):
            TargetedStrategy(focus_factor=0)

    def test_every_plan_state_is_routable(self):
        for state in STATE_PLAN:
            route = bfs_route(state)
            assert route[0] is ChannelState.CLOSED
            assert route[-1] is state

    def test_initiator_only_state_unroutable(self):
        with pytest.raises(ValueError, match="no acceptor-side route"):
            bfs_route(ChannelState.WAIT_CONNECT_RSP)

    def test_bfs_route_is_shortest_deterministic(self):
        assert bfs_route(ChannelState.CLOSED) == (ChannelState.CLOSED,)
        assert bfs_route(ChannelState.WAIT_CONFIG) == (
            ChannelState.CLOSED,
            ChannelState.WAIT_CONFIG,
        )
        assert bfs_route(ChannelState.OPEN) == bfs_route(ChannelState.OPEN)


class TestRoutePins:
    """The targeted routes, and the campaigns that follow them, hold."""

    def test_pins_cover_the_plan(self):
        assert set(PINNED_ROUTES) == set(STATE_PLAN)
        assert set(PINNED_TARGETED_DIGESTS) == set(STATE_PLAN)

    @pytest.mark.parametrize("target", STATE_PLAN, ids=lambda state: state.name)
    def test_route_is_pinned(self, target):
        assert bfs_route(target) == PINNED_ROUTES[target]

    @pytest.mark.parametrize("target", STATE_PLAN, ids=lambda state: state.name)
    def test_targeted_campaign_sends_pinned_packets(self, target):
        session = FuzzSession(
            profile=D2,
            config=FuzzConfig(max_packets=1_500),
            armed=False,
            strategy=TargetedStrategy(target=target),
            retain_trace="sent",
        )
        session.run()
        digest = hashlib.sha256()
        for packet in session.fuzzer.sniffer.sent_packets():
            digest.update(packet.encode())
        assert digest.hexdigest() == PINNED_TARGETED_DIGESTS[target]


class TestRouteMemo:
    """``bfs_route`` is memoized over the constant transition graph."""

    def test_memoized_route_equals_fresh_bfs(self):
        fresh_bfs = bfs_route.__wrapped__
        for target in STATE_PLAN:
            expected = fresh_bfs(target)
            assert bfs_route(target) == expected
            # The second call is served from the memo, unchanged.
            assert bfs_route(target) == expected

    def test_unroutable_target_raises_on_every_call(self):
        for _ in range(3):
            with pytest.raises(ValueError, match="no acceptor-side route"):
                bfs_route(ChannelState.WAIT_CONNECT_RSP)

    def test_targeted_plan_keeps_route_order_within_base_plan(self):
        strategy = TargetedStrategy(target=ChannelState.OPEN)
        base_plan = [state for state in STATE_PLAN if state is not ChannelState.WAIT_CONFIG]
        plan = strategy.plan(base_plan, {})
        assert plan == tuple(
            state for state in bfs_route(ChannelState.OPEN) if state in base_plan
        )
        assert ChannelState.WAIT_CONFIG not in plan


class TestStrategyCampaigns:
    """Full campaigns under each strategy stay deterministic."""

    def _run(self, name, seed=41, budget=600):
        device, link, _ = make_rig(armed=False)
        fuzzer = L2Fuzz(
            link=link,
            inquiry=device.inquiry,
            browse=device.services.all_records,
            config=FuzzConfig(max_packets=budget, seed=seed),
            strategy=make_strategy(name),
        )
        return fuzzer.run()

    @pytest.mark.parametrize("name", STRATEGY_NAMES)
    def test_campaign_deterministic_under_fixed_seed(self, name):
        first = self._run(name)
        second = self._run(name)
        assert first == second
        assert first.strategy == name

    @pytest.mark.parametrize("name", STRATEGY_NAMES)
    def test_campaign_records_visits(self, name):
        report = self._run(name)
        assert report.state_visits
        assert all(count >= 1 for _, count in report.state_visits)
        # Visits are recorded per successful entry, transitions between
        # consecutive entries: one fewer than total visits.
        total = sum(count for _, count in report.state_visits)
        transitions = sum(count for _, _, count in report.transition_visits)
        assert transitions == total - 1

    def test_targeted_campaign_spends_budget_on_target(self):
        report = self._run("targeted", budget=900)
        visits = dict(
            (name, count) for name, count in report.state_visits
        )
        assert ChannelState.OPEN.value in visits
