"""AFL-style energy scheduling over the state plan.

The :class:`EnergyScheduler` is an exploration strategy (registry name
``coverage_guided``) that feeds the per-state visit counts the fuzzer
already records back into mutation scheduling:

* **explore** — while any plan state is still unvisited, every state
  gets a minimal mutation budget (``explore_budget`` packets per
  command). Routing dominates, so the campaign touches the whole state
  machine in a fraction of the packets a fixed-budget sweep spends;
* **exploit** — once the visit map is complete, each state's budget is
  scaled by how rare it is: ``base × mean(visits) / visits(state)``,
  clamped to ``[1, base × max_energy]``. Rare states get up to
  ``max_energy`` times the base budget, over-visited states are starved
  — the classic AFL energy assignment, with plan states playing the
  role of queue entries.

Cross-campaign seed sharing enters through *prior_visits*: the
per-state entry frequencies of a shared corpus
(:meth:`~repro.corpus.sqlite_backend.SqliteCorpusBackend.state_frequencies`,
keyed by state name so the prior pickles into worker processes). A
campaign seeded with a corpus that already covers the whole machine
skips straight to exploit mode and concentrates on the states the fleet
has historically starved.

Determinism: the schedule is a pure function of the prior, the base
plan and the visit counts, so campaigns remain byte-reproducible given
a seed. The scheduler keeps a reference to the live visit mapping the
fuzzer hands :meth:`plan` so per-state budgets track visits *within*
a sweep as well — still deterministic, since visit accounting itself
is.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.l2cap.states import ChannelState


def _state_name(state) -> str:
    """Coverage-token name of a plan state (any target's enum, or str)."""
    return state.value if hasattr(state, "value") else str(state)


def _normalise_prior(
    prior_visits: Mapping[ChannelState, int] | Mapping[str, int] | None,
) -> dict[str, int]:
    """Key the prior by state *name* so it is protocol-agnostic.

    Corpus tokens are plain strings; campaigns hand the scheduler enum
    states. Bridging on the name means one prior serves every fuzz
    target (state names are unique per protocol by construction).
    """
    prior: dict[str, int] = {}
    for key, count in (prior_visits or {}).items():
        name = _state_name(key)
        prior[name] = prior.get(name, 0) + int(count)
    return prior


class EnergyScheduler:
    """Coverage-feedback exploration strategy.

    :param prior_visits: cross-campaign visit prior, keyed by state (or
        state name); empty means a cold start.
    :param explore_budget: packets per command while the visit map is
        incomplete.
    :param max_energy: upper clamp on the exploit-phase boost factor.
    """

    name = "coverage_guided"

    def __init__(
        self,
        prior_visits: Mapping[ChannelState, int] | Mapping[str, int] | None = None,
        explore_budget: int = 1,
        max_energy: int = 4,
    ) -> None:
        if explore_budget < 1:
            raise ValueError("explore_budget must be >= 1")
        if max_energy < 1:
            raise ValueError("max_energy must be >= 1")
        self.prior_visits = _normalise_prior(prior_visits)
        self.explore_budget = explore_budget
        self.max_energy = max_energy
        self._plan: tuple[ChannelState, ...] = ()
        self._live: Mapping[ChannelState, int] = {}

    # -- ExplorationStrategy protocol ---------------------------------------------

    def plan(
        self,
        base_plan: Sequence[ChannelState],
        visits: Mapping[ChannelState, int],
    ) -> tuple[ChannelState, ...]:
        """Least-visited states first, counting the corpus prior."""
        self._plan = tuple(base_plan)
        self._live = visits
        order = {state: index for index, state in enumerate(base_plan)}
        return tuple(
            sorted(
                base_plan,
                key=lambda state: (self._merged(state, visits), order[state]),
            )
        )

    def packets_per_command(self, state: ChannelState, base: int) -> int:
        """Energy for *state*: explore minimally, then exploit rarity."""
        if not self._plan:
            return base
        counts = {s: self._merged(s, self._live) for s in self._plan}
        if min(counts.values()) == 0:
            return self.explore_budget
        mean = sum(counts.values()) / len(counts)
        visits = max(1, counts.get(state, 1))
        energy = int(round(base * mean / visits))
        return max(1, min(base * self.max_energy, energy))

    # -- internals ----------------------------------------------------------------

    def _merged(
        self, state: ChannelState, visits: Mapping[ChannelState, int]
    ) -> int:
        return self.prior_visits.get(_state_name(state), 0) + visits.get(state, 0)

