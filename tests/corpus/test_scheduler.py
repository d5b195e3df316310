"""Tests for the AFL-style energy scheduler."""

from __future__ import annotations

import pytest

from repro.core.state_guiding import STATE_PLAN
from repro.core.strategies import make_strategy
from repro.corpus.backend import open_backend
from repro.corpus.entry import entry_from_packets
from repro.corpus.scheduler import EnergyScheduler
from repro.l2cap.packets import echo_request
from repro.l2cap.states import ChannelState


class TestValidation:
    def test_explore_budget_validated(self):
        with pytest.raises(ValueError, match="explore_budget"):
            EnergyScheduler(explore_budget=0)

    def test_max_energy_validated(self):
        with pytest.raises(ValueError, match="max_energy"):
            EnergyScheduler(max_energy=0)

    def test_prior_accepts_state_names(self):
        scheduler = EnergyScheduler(prior_visits={"OPEN": 3, "CLOSED": 1})
        assert scheduler.prior_visits["OPEN"] == 3
        assert scheduler.prior_visits["CLOSED"] == 1


class TestPlan:
    def test_cold_start_keeps_base_order(self):
        plan = EnergyScheduler().plan(STATE_PLAN, {})
        assert plan == tuple(STATE_PLAN)

    def test_least_visited_first_counting_prior(self):
        scheduler = EnergyScheduler(
            prior_visits={state.value: 2 for state in STATE_PLAN}
            | {ChannelState.WAIT_MOVE.value: 0}
        )
        plan = scheduler.plan(STATE_PLAN, {})
        assert plan[0] is ChannelState.WAIT_MOVE

    def test_plan_is_permutation(self):
        plan = EnergyScheduler(prior_visits={"OPEN": 5}).plan(STATE_PLAN, {})
        assert sorted(plan, key=lambda s: s.value) == sorted(
            STATE_PLAN, key=lambda s: s.value
        )


class TestEnergy:
    def test_explore_mode_while_map_incomplete(self):
        scheduler = EnergyScheduler(explore_budget=1)
        visits = {STATE_PLAN[0]: 1}  # everything else unvisited
        scheduler.plan(STATE_PLAN, visits)
        for state in STATE_PLAN:
            assert scheduler.packets_per_command(state, 5) == 1

    def test_exploit_mode_boosts_rare_states(self):
        visits = {state: 4 for state in STATE_PLAN}
        visits[ChannelState.WAIT_MOVE] = 1
        scheduler = EnergyScheduler()
        scheduler.plan(STATE_PLAN, visits)
        rare = scheduler.packets_per_command(ChannelState.WAIT_MOVE, 5)
        common = scheduler.packets_per_command(ChannelState.CLOSED, 5)
        assert rare > common
        assert common >= 1

    def test_energy_clamped_to_max(self):
        visits = {state: 100 for state in STATE_PLAN}
        visits[ChannelState.WAIT_MOVE] = 1
        scheduler = EnergyScheduler(max_energy=4)
        scheduler.plan(STATE_PLAN, visits)
        assert scheduler.packets_per_command(ChannelState.WAIT_MOVE, 5) == 20

    def test_uniform_visits_get_base_budget(self):
        visits = {state: 3 for state in STATE_PLAN}
        scheduler = EnergyScheduler()
        scheduler.plan(STATE_PLAN, visits)
        for state in STATE_PLAN:
            assert scheduler.packets_per_command(state, 5) == 5

    def test_before_any_plan_returns_base(self):
        assert EnergyScheduler().packets_per_command(ChannelState.OPEN, 7) == 7

    def test_prior_skips_explore_mode(self):
        """A corpus covering the whole machine goes straight to exploit."""
        scheduler = EnergyScheduler(
            prior_visits={state.value: 1 for state in STATE_PLAN}
        )
        scheduler.plan(STATE_PLAN, {})
        assert scheduler.packets_per_command(STATE_PLAN[0], 5) == 5


class TestRegistry:
    def test_make_strategy_builds_scheduler(self):
        strategy = make_strategy("coverage_guided")
        assert isinstance(strategy, EnergyScheduler)
        assert strategy.name == "coverage_guided"

    def test_make_strategy_threads_prior(self):
        strategy = make_strategy("coverage_guided", prior_visits={"OPEN": 9})
        assert strategy.prior_visits["OPEN"] == 9

    def test_other_strategies_ignore_prior(self):
        strategy = make_strategy("sequential", prior_visits={"OPEN": 9})
        assert strategy.name == "sequential"


def test_corpus_state_frequencies_are_the_prior(tmp_path):
    store = open_backend(tmp_path)
    entry = entry_from_packets(
        [echo_request(b"x", identifier=1)],
        ["CLOSED", "CLOSED>OPEN"],
        ["CLOSED", "CLOSED>OPEN", "OPEN"],
        "D2",
        "sequential",
        7,
        False,
    )
    store.ingest([([entry], ())])
    prior = store.state_frequencies()
    assert prior == {"CLOSED": 1, "OPEN": 1}
    scheduler = EnergyScheduler(prior_visits=prior)
    assert scheduler.prior_visits["OPEN"] == 1
