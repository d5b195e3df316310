"""Pluggable exploration strategies for the state-guided fuzzing loop.

The seed campaign walks the 13-state plan in a fixed shallow-to-deep
order every sweep (paper Fig. 5). Stateful-fuzzing practice suggests
richer schedules: spreading visits evenly across the machine, driving
the deepest reachable chains first, or concentrating the whole mutation
budget on one suspect state. This module factors that scheduling
decision out of :class:`~repro.core.fuzzer.L2Fuzz` behind a small
protocol, so a campaign (or a whole fleet) can pick its exploration
policy per run:

* ``sequential`` — the seed behaviour and the default: the plan exactly
  as :class:`~repro.core.state_guiding.StateGuide` orders it.
* ``breadth_first`` — least-visited states first, so every reachable
  state is visited once before any state is visited a second time, even
  when sweeps are cut short by the packet budget.
* ``depth_first`` — states needing the longest valid-command routing
  chains first, exercising the deepest protocol contexts while the
  budget is still fresh.
* ``targeted`` — BFS-route through the transition relation to one
  chosen state and concentrate the mutation budget there.

Every strategy is a pure function of the base plan and the visit
counts; given a fixed campaign seed the resulting schedule is fully
deterministic.
"""

from __future__ import annotations

import dataclasses
import functools
from collections import deque
from collections.abc import Mapping, Sequence
from typing import Protocol, runtime_checkable

from repro.l2cap.states import ROUTE_GRAPH, ChannelState


@runtime_checkable
class ExplorationStrategy(Protocol):
    """Policy deciding which states a sweep visits and how hard.

    Implementations must be deterministic: the same ``base_plan`` and
    ``visits`` must always produce the same schedule.
    """

    @property
    def name(self) -> str:
        """Registry name of the strategy (appears in reports)."""
        ...

    def plan(
        self,
        base_plan: Sequence[ChannelState],
        visits: Mapping[ChannelState, int],
    ) -> tuple[ChannelState, ...]:
        """Order the states the next sweep will visit.

        :param base_plan: the guide's canonical shallow-to-deep plan.
        :param visits: per-state visit counts accumulated so far.
        """
        ...

    def packets_per_command(self, state: ChannelState, base: int) -> int:
        """Mutation budget for *state*: malformed packets per command."""
        ...


#: Valid-command routing depth of each plan state: how many exchanges the
#: :class:`~repro.core.state_guiding.StateGuide` route needs to park the
#: target there. Drives the ``depth_first`` ordering.
ROUTE_DEPTH: dict[ChannelState, int] = {
    ChannelState.CLOSED: 0,
    ChannelState.WAIT_CONNECT: 0,
    ChannelState.WAIT_CREATE: 1,
    ChannelState.WAIT_CONFIG: 1,
    ChannelState.WAIT_CONFIG_REQ_RSP: 1,
    ChannelState.WAIT_SEND_CONFIG: 2,
    ChannelState.WAIT_CONFIG_RSP: 2,
    ChannelState.WAIT_CONFIG_REQ: 2,
    ChannelState.WAIT_IND_FINAL_RSP: 2,
    ChannelState.WAIT_DISCONNECT: 2,
    ChannelState.OPEN: 3,
    ChannelState.WAIT_MOVE: 4,
    ChannelState.WAIT_MOVE_CONFIRM: 4,
}


@functools.cache
def bfs_route(target: ChannelState) -> tuple[ChannelState, ...]:
    """Shortest transition path ``CLOSED → target`` (inclusive).

    Plans over :data:`~repro.l2cap.states.ROUTE_GRAPH`. Neighbour
    expansion is ordered by the canonical state-plan index, so the route
    is deterministic. Raises :class:`ValueError` when *target* is
    unreachable.

    Memoized: the route is a pure function of the constant graph, and a
    targeted strategy asks for it every sweep. A raise is not memoized,
    so an unroutable target raises on every call.
    """
    from repro.core.state_guiding import STATE_PLAN

    origin = ChannelState.CLOSED
    order = {state: index for index, state in enumerate(STATE_PLAN)}
    if target is origin:
        return (origin,)
    parents: dict[ChannelState, ChannelState] = {}
    frontier = deque([origin])
    while frontier:
        state = frontier.popleft()
        neighbours = sorted(
            ROUTE_GRAPH.get(state, frozenset()),
            key=lambda s: order.get(s, len(order)),
        )
        for neighbour in neighbours:
            if neighbour is origin or neighbour in parents:
                continue
            parents[neighbour] = state
            if neighbour is target:
                path = [target]
                while path[-1] is not origin:
                    path.append(parents[path[-1]])
                return tuple(reversed(path))
            frontier.append(neighbour)
    raise ValueError(f"no acceptor-side route from {origin.value} to {target.value}")


@dataclasses.dataclass(frozen=True)
class SequentialStrategy:
    """The seed behaviour: the guide's plan, verbatim, every sweep."""

    name: str = dataclasses.field(default="sequential", init=False)

    def plan(
        self,
        base_plan: Sequence[ChannelState],
        visits: Mapping[ChannelState, int],
    ) -> tuple[ChannelState, ...]:
        return tuple(base_plan)

    def packets_per_command(self, state: ChannelState, base: int) -> int:
        return base


@dataclasses.dataclass(frozen=True)
class BreadthFirstStrategy:
    """Least-visited states first (ties break in plan order).

    Because every state's count is incremented on entry, any state still
    at the minimum count sorts ahead of states already past it — so the
    schedule provably visits every reachable state once before visiting
    any state a second time, even across budget-truncated sweeps.
    """

    name: str = dataclasses.field(default="breadth_first", init=False)

    def plan(
        self,
        base_plan: Sequence[ChannelState],
        visits: Mapping[ChannelState, int],
    ) -> tuple[ChannelState, ...]:
        order = {state: index for index, state in enumerate(base_plan)}
        return tuple(
            sorted(base_plan, key=lambda s: (visits.get(s, 0), order[s]))
        )

    def packets_per_command(self, state: ChannelState, base: int) -> int:
        return base


@dataclasses.dataclass(frozen=True)
class DepthFirstStrategy:
    """Longest valid routing chains first, then back towards CLOSED.

    Each sweep starts from the states that need the deepest
    valid-command routes (move, open, configuration lockstep) while the
    packet budget is freshest, mirroring depth-first exploration of the
    transition tree before the teardown reset.
    """

    name: str = dataclasses.field(default="depth_first", init=False)

    def plan(
        self,
        base_plan: Sequence[ChannelState],
        visits: Mapping[ChannelState, int],
    ) -> tuple[ChannelState, ...]:
        order = {state: index for index, state in enumerate(base_plan)}
        return tuple(
            sorted(
                base_plan,
                key=lambda s: (-ROUTE_DEPTH.get(s, 0), -order[s]),
            )
        )

    def packets_per_command(self, state: ChannelState, base: int) -> int:
        return base


@dataclasses.dataclass(frozen=True)
class TargetedStrategy:
    """Concentrate the campaign on one state.

    The sweep follows the BFS route from CLOSED to :attr:`target` so the
    protocol context is built with valid commands, fuzzing lightly along
    the way, then spends :attr:`focus_factor` times the base mutation
    budget on the target itself.

    :param target: the state receiving the concentrated budget.
    :param focus_factor: budget multiplier for the target state.
    """

    target: ChannelState = ChannelState.OPEN
    focus_factor: int = 4
    name: str = dataclasses.field(default="targeted", init=False)

    def __post_init__(self) -> None:
        if self.focus_factor < 1:
            raise ValueError("focus_factor must be >= 1")
        bfs_route(self.target)  # fail fast on unroutable targets

    def plan(
        self,
        base_plan: Sequence[ChannelState],
        visits: Mapping[ChannelState, int],
    ) -> tuple[ChannelState, ...]:
        planned = set(base_plan)
        return tuple(state for state in bfs_route(self.target) if state in planned)

    def packets_per_command(self, state: ChannelState, base: int) -> int:
        if state is self.target:
            return base * self.focus_factor
        return max(1, base // 2)


#: Registry names, in presentation order.
STRATEGY_NAMES: tuple[str, ...] = (
    "sequential",
    "breadth_first",
    "depth_first",
    "targeted",
    "coverage_guided",
)


def make_strategy(
    name: str,
    target: ChannelState | None = None,
    prior_visits: Mapping[str, int] | None = None,
) -> ExplorationStrategy:
    """Build a strategy from its registry name.

    :param name: one of :data:`STRATEGY_NAMES`.
    :param target: target state for ``targeted`` (default OPEN); ignored
        by the other strategies.
    :param prior_visits: cross-campaign visit prior (state name →
        count) for ``coverage_guided``; ignored by the other strategies.
    :raises ValueError: for an unknown name.
    """
    if name == "sequential":
        return SequentialStrategy()
    if name == "breadth_first":
        return BreadthFirstStrategy()
    if name == "depth_first":
        return DepthFirstStrategy()
    if name == "targeted":
        if target is None:
            return TargetedStrategy()
        return TargetedStrategy(target=target)
    if name == "coverage_guided":
        # Imported lazily: the scheduler lives with the corpus subsystem
        # it feeds from, and core stays import-light without it.
        from repro.corpus.scheduler import EnergyScheduler

        return EnergyScheduler(prior_visits=prior_visits)
    raise ValueError(
        f"unknown strategy {name!r}; choose from {', '.join(STRATEGY_NAMES)}"
    )
