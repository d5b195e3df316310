"""Unit tests for the persistent fleet runtime's data plane.

The summary blob (``marshal`` of plain tuples behind a version,
interpreter, length and CRC-32 header) is the worker→orchestrator wire
format; if it drops or distorts a field, fleets silently mis-merge.
These tests pin the codec round trip, every field the fleet report
renders from a decoded summary against the in-process campaign report
as oracle (per protocol target), and the simulated makespan's edge
cases. Corruption handling is pinned in
``tests/integration/test_fault_tolerance.py``.
"""

from __future__ import annotations

import pytest

from repro.core.config import FuzzConfig
from repro.core.fleet import simulated_makespan
from repro.core.runtime import (
    decode_summary,
    encode_summary,
    summarize_session,
)
from repro.testbed.profiles import D1, D2
from repro.testbed.session import FuzzSession

ALL_TARGETS = ("l2cap", "rfcomm", "sdp", "obex")


def _campaign(target: str, armed: bool, budget: int = 900):
    session = FuzzSession(
        profile=D2 if armed else D1,
        config=FuzzConfig(max_packets=budget),
        armed=armed,
        target=target,
    )
    report = session.run()
    return session, report


class TestSummaryCodec:
    @pytest.mark.parametrize("target", ALL_TARGETS)
    def test_round_trip_is_identity(self, target):
        session, report = _campaign(target, armed=False, budget=600)
        summary = summarize_session(session, report)
        assert decode_summary(encode_summary(summary)) == summary

    def test_round_trip_preserves_findings(self):
        session, report = _campaign("l2cap", armed=True, budget=5_000)
        assert report.findings, "armed D2 campaign should crash"
        summary = summarize_session(session, report)
        decoded = decode_summary(encode_summary(summary))
        assert decoded.findings == summary.findings
        assert decoded.findings[0].trigger == report.findings[0].trigger

    def test_unknown_version_rejected(self):
        session, report = _campaign("l2cap", armed=False, budget=300)
        blob = bytearray(encode_summary(summarize_session(session, report)))
        blob[0] = 99
        with pytest.raises(ValueError, match="format version 99"):
            decode_summary(bytes(blob))

    def test_blob_is_compact(self):
        import pickle

        session, report = _campaign("l2cap", armed=False, budget=900)
        summary = summarize_session(session, report)
        blob = encode_summary(summary)
        # The binary codec beats pickling the same information, and a
        # streaming campaign's result stays a small constant-ish blob.
        assert len(blob) < len(pickle.dumps(summary))
        assert len(blob) < 4096


def _assert_renders_report(summary, report) -> None:
    """Every field the fleet report renders equals the in-process report's."""
    assert summary.target_name == report.target_name
    assert summary.fuzz_target == report.fuzz_target
    assert summary.strategy == report.strategy
    assert summary.state_space == report.state_space
    assert summary.packets_sent == report.packets_sent
    assert summary.sweeps_completed == report.sweeps_completed
    assert summary.elapsed_seconds == report.elapsed_seconds
    assert summary.covered_states == tuple(
        sorted(state.value for state in report.covered_states)
    )
    assert summary.state_visits == report.state_visits
    assert summary.transition_visits == report.transition_visits
    assert summary.efficiency == report.efficiency
    assert (
        summary.efficiency.mutation_efficiency
        == report.efficiency.mutation_efficiency
    )
    assert len(summary.findings) == len(report.findings)
    for rendered, finding in zip(summary.findings, report.findings):
        assert rendered.vulnerability_class == finding.vulnerability_class.value
        assert rendered.error_message == finding.error_message
        assert rendered.state == finding.state
        assert rendered.trigger == finding.trigger
        assert rendered.sim_time == finding.sim_time
        assert rendered.target == finding.target
        assert rendered.sent_index == finding.sent_index


class TestDecodedSummaryRendersReport:
    """A summary decoded off the wire renders what the campaign reported."""

    @pytest.mark.parametrize("target", ALL_TARGETS)
    def test_disarmed_campaign(self, target):
        session, report = _campaign(target, armed=False, budget=600)
        summary = decode_summary(
            encode_summary(summarize_session(session, report))
        )
        _assert_renders_report(summary, report)

    def test_armed_campaign_with_findings(self):
        session, report = _campaign("l2cap", armed=True, budget=5_000)
        assert report.findings, "armed D2 campaign should crash"
        summary = decode_summary(
            encode_summary(summarize_session(session, report))
        )
        _assert_renders_report(summary, report)


class TestSimulatedMakespanEdges:
    def test_empty_durations_is_zero(self):
        assert simulated_makespan([], 1) == 0.0
        assert simulated_makespan([], 7) == 0.0

    def test_more_workers_than_campaigns(self):
        # Each campaign gets its own worker; idle workers change nothing.
        assert simulated_makespan([3.0, 2.0], 5) == 3.0
        assert simulated_makespan([4.0], 100) == 4.0

    def test_tied_durations_fill_evenly(self):
        assert simulated_makespan([2.0, 2.0, 2.0, 2.0], 2) == 4.0
        assert simulated_makespan([1.0] * 6, 3) == 2.0

    def test_tie_breaking_is_deterministic(self):
        # Equal loads: the greedy rule always picks the first least-
        # loaded worker, so repeated evaluation is stable.
        durations = [5.0, 5.0, 1.0, 1.0, 1.0]
        assert simulated_makespan(durations, 2) == simulated_makespan(
            durations, 2
        )
        assert simulated_makespan(durations, 2) == 7.0

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError, match="workers"):
            simulated_makespan([1.0], 0)
