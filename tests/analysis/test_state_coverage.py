"""Tests for PRETT-style state-coverage inference.

The key property: the analyzer infers target states from the *wire* only,
and its inference agrees with the virtual device's ground-truth state
history.
"""

from __future__ import annotations

from repro.analysis.state_coverage import (
    StateCoverageAnalyzer,
    coverage_report,
    state_coverage,
)
from repro.core.state_guiding import StateGuide
from repro.core.target_scanning import TargetScanner
from repro.l2cap.states import ACCEPTOR_REACHABLE_STATES, ChannelState

from tests.conftest import make_rig


def _walk_plan(device, queue, states=None):
    scan = TargetScanner(queue, device.inquiry, device.services.all_records).scan()
    guide = StateGuide(queue, scan)
    for state in states if states is not None else guide.plan():
        guided = guide.enter(state)
        guide.leave(guided)
    return state_coverage(queue.sniffer)


class TestInference:
    def test_empty_trace_covers_only_closed(self):
        analyzer = StateCoverageAnalyzer()
        assert analyzer.coverage() == frozenset({ChannelState.CLOSED})
        assert analyzer.coverage_count == 1

    def test_full_plan_walk_infers_all_13_states(self):
        device, _, queue = make_rig()
        covered = _walk_plan(device, queue)
        assert covered == ACCEPTOR_REACHABLE_STATES

    def test_inference_agrees_with_device_ground_truth(self):
        device, _, queue = make_rig()
        covered = _walk_plan(device, queue)
        visited = {visit.state for visit in device.engine.state_history}
        ground_truth = visited | {ChannelState.CLOSED}
        assert covered <= ground_truth

    def test_inference_never_claims_initiator_states(self):
        device, _, queue = make_rig()
        covered = _walk_plan(device, queue)
        from repro.l2cap.states import INITIATOR_ONLY_STATES

        assert not covered & INITIATOR_ONLY_STATES

    def test_connect_only_covers_three_states(self):
        """A BSS-style walk demonstrates exactly the paper's 3 states.

        Uses a passive-only service catalogue: an initiating port would
        legitimately expose extra configuration states during the scan.
        """
        from tests.conftest import make_services

        device, _, queue = make_rig(
            services=make_services(open_initiating=False)
        )
        covered = _walk_plan(device, queue, states=[ChannelState.WAIT_CONFIG])
        assert covered == frozenset(
            {
                ChannelState.CLOSED,
                ChannelState.WAIT_CONNECT,
                ChannelState.WAIT_CONFIG,
            }
        )

    def test_open_walk_adds_config_flavours(self):
        device, _, queue = make_rig()
        covered = _walk_plan(device, queue, states=[ChannelState.OPEN])
        assert ChannelState.OPEN in covered
        assert ChannelState.WAIT_SEND_CONFIG in covered
        assert ChannelState.WAIT_CONFIG_RSP in covered

    def test_move_states_inferred(self):
        device, _, queue = make_rig()
        covered = _walk_plan(device, queue, states=[ChannelState.WAIT_MOVE_CONFIRM])
        assert ChannelState.WAIT_MOVE in covered
        assert ChannelState.WAIT_MOVE_CONFIRM in covered

    def test_wait_disconnect_inferred_from_target_initiative(self):
        device, _, queue = make_rig()
        covered = _walk_plan(device, queue, states=[ChannelState.WAIT_DISCONNECT])
        assert ChannelState.WAIT_DISCONNECT in covered


class TestCoverageReport:
    def test_report_shape(self):
        report = coverage_report(frozenset({ChannelState.CLOSED, ChannelState.OPEN}))
        assert report["count"] == 2
        assert report["total"] == 19
        assert "CLOSED" in report["states"]
        assert "WAIT_MOVE" in report["missing"]
        assert len(report["states"]) + len(report["missing"]) == 19
