"""Telemetry stays off the packet path, checked by counting, not timing.

A worker shard with telemetry on writes its journal and touches the
metrics registry only at shard and campaign boundaries. So the number
of boundary events and of registry calls must not change with the
packet budget, and the only events that grow with it are the bridged
Logfile records (``campaign_log``), one per entry of the campaign's own
log.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.config import FuzzConfig
from repro.core.runtime import FleetContext, run_shard
from repro.telemetry import (
    SEGMENTS_DIRNAME,
    MetricsRegistry,
    log_entries_from_events,
    read_events,
)
from repro.testbed.session import FuzzSession

BUDGETS = (500, 2_000, 8_000)

#: Logfile entries of the D1 sequential seed-7 campaign at each budget.
LOG_ENTRIES = {500: 12, 2_000: 47, 8_000: 181}

BOUNDARY_EVENTS = Counter(
    shard_start=1, campaign_start=1, campaign_end=1, shard_end=1
)


def _run_telemetry_shard(tmp_path, budget):
    """One disarmed D1 campaign through ``run_shard`` with telemetry on.

    Returns the shard's journal events, the campaign's Logfile entries
    and the number of registry ``inc``/``observe`` calls it made.
    """
    sessions = []
    registry_calls = Counter()
    original_run = FuzzSession.run
    original_inc = MetricsRegistry.inc
    original_observe = MetricsRegistry.observe

    def run(session):
        sessions.append(session)
        return original_run(session)

    def inc(registry, *args, **kwargs):
        registry_calls["inc"] += 1
        return original_inc(registry, *args, **kwargs)

    def observe(registry, *args, **kwargs):
        registry_calls["observe"] += 1
        return original_observe(registry, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FuzzSession, "run", run)
        patch.setattr(MetricsRegistry, "inc", inc)
        patch.setattr(MetricsRegistry, "observe", observe)
        context = FleetContext(
            base_config=FuzzConfig(seed=7, max_packets=budget),
            armed=False,
            target_state_value="OPEN",
            corpus_dir=None,
            retain_trace=False,
            prior_visits=(),
            dictionary=(),
            telemetry_dir=str(tmp_path),
            run_id=f"budget-{budget}",
        )
        run_shard(context, ((0, "D1", "sequential", 7, "l2cap"),))
    (segment,) = (tmp_path / f"budget-{budget}" / SEGMENTS_DIRNAME).glob(
        "*.jsonl"
    )
    (session,) = sessions
    return read_events(segment), session.fuzzer.log.entries, registry_calls


@pytest.fixture(scope="module")
def shards(tmp_path_factory):
    return {
        budget: _run_telemetry_shard(
            tmp_path_factory.mktemp(f"telemetry-{budget}"), budget
        )
        for budget in BUDGETS
    }


@pytest.mark.parametrize("budget", BUDGETS)
def test_boundary_events_do_not_grow_with_budget(shards, budget):
    events, _, _ = shards[budget]
    kinds = Counter(event["event"] for event in events)
    del kinds["campaign_log"]
    assert kinds == BOUNDARY_EVENTS
    (end,) = (event for event in events if event["event"] == "campaign_end")
    assert end["packets_sent"] >= budget  # fuzzing budget plus scanning


@pytest.mark.parametrize("budget", BUDGETS)
def test_campaign_log_events_are_the_logfile(shards, budget):
    events, log_entries, _ = shards[budget]
    bridged = log_entries_from_events(events, campaign=0)
    assert len(bridged) == LOG_ENTRIES[budget]
    assert [entry.as_dict() for entry in bridged] == [
        entry.as_dict() for entry in log_entries
    ]


def test_registry_calls_do_not_grow_with_budget(shards):
    calls = {budget: shards[budget][2] for budget in BUDGETS}
    assert calls[BUDGETS[0]] == calls[BUDGETS[1]] == calls[BUDGETS[2]], calls
