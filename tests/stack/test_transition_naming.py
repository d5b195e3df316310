"""Transition counters keep raw command codes; the readers name them.

The engine counts ``(code, state, outcome)`` per packet and attaches
command names only when :meth:`HostStackEngine.transition_coverage` or
:meth:`HostStackEngine.outcome_totals` is read. Both views must equal
what naming every packet as it is counted gives, unknown codes folding
into one ``UNKNOWN`` command.
"""

from __future__ import annotations

from collections import Counter

from repro.core.config import FuzzConfig
from repro.l2cap.constants import COMMAND_NAME_BY_VALUE, CommandCode
from repro.l2cap.packets import L2capPacket
from repro.stack.engine import HostStackEngine
from repro.testbed.profiles import D2
from repro.testbed.session import FuzzSession


class _NamingCounter(Counter):
    """``transition_hits`` that also tallies every increment under its
    command's name, at the moment the engine counts the packet."""

    def __init__(self, named: Counter) -> None:
        self.named = named
        super().__init__()

    def __setitem__(self, key, value) -> None:
        code, state, outcome = key
        command = COMMAND_NAME_BY_VALUE.get(code, "UNKNOWN")
        self.named[(command, state, outcome)] += value - self[key]
        super().__setitem__(key, value)


def _spy(engine: HostStackEngine) -> Counter:
    """Per-packet named tallies, recorded beside the engine's own."""
    named: Counter = Counter()
    engine.transition_hits = _NamingCounter(named)
    return named


def _named_totals(hits: Counter) -> dict[str, int]:
    totals: dict[str, int] = {}
    for (_, _, outcome), count in hits.items():
        totals[outcome] = totals.get(outcome, 0) + count
    return totals


def test_armed_d2_campaign_views_match_per_packet_naming():
    session = FuzzSession(
        profile=D2,
        config=FuzzConfig(seed=11, max_packets=1_500),
        armed=True,
        zero_latency=True,
    )
    named_hits = _spy(session.device.engine)
    report = session.run()
    assert report.findings
    engine = session.device.engine
    assert engine.transition_coverage() == frozenset(named_hits)
    assert engine.outcome_totals() == _named_totals(named_hits)
    assert sum(engine.transition_hits.values()) == sum(named_hits.values())


def test_unknown_codes_fold_into_one_command():
    session = FuzzSession(profile=D2, config=FuzzConfig(max_packets=10), armed=False)
    engine = session.device.engine
    named_hits = _spy(engine)
    for code in (0x55, 0x56, CommandCode.ECHO_REQ):
        engine.handle_l2cap(L2capPacket(code, 1, {"a": 1}, fill_defaults=False))
    assert len(engine.transition_hits) == 3
    assert engine.transition_coverage() == frozenset(named_hits)
    assert len(engine.transition_coverage()) == 2
    assert engine.outcome_totals() == _named_totals(named_hits)
