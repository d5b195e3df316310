"""Tests for mutation-efficiency metrics and the Fig. 8/9 curves."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.metrics import (
    MutationEfficiency,
    measure,
    mp_curve,
    pr_curve,
    render_ascii_curve,
)
from repro.analysis.sniffer import PacketSniffer
from repro.l2cap.constants import CommandCode
from repro.l2cap.packets import L2capPacket, command_reject, echo_request


def _garbage_packet():
    packet = echo_request()
    packet = packet.replace(garbage=b"\x00")
    return packet


class TestMutationEfficiency:
    def test_paper_formula(self):
        """Table VII: efficiency = MP * (1 - PR) for the L2Fuzz row."""
        eff = MutationEfficiency(
            transmitted=100_000,
            malformed=69_960,
            received=100_000,
            rejections=32_490,
            elapsed_seconds=100_000 / 524.27,
        )
        assert eff.mp_ratio == pytest.approx(0.6996)
        assert eff.pr_ratio == pytest.approx(0.3249)
        assert eff.mutation_efficiency == pytest.approx(0.4723, abs=1e-4)
        assert eff.packets_per_second == pytest.approx(524.27)

    def test_zero_division_guards(self):
        eff = MutationEfficiency(0, 0, 0, 0, 0.0)
        assert eff.mp_ratio == 0.0
        assert eff.pr_ratio == 0.0
        assert eff.mutation_efficiency == 0.0
        assert eff.packets_per_second == 0.0

    def test_table_row_rendering(self):
        eff = MutationEfficiency(1000, 700, 800, 260, 10.0)
        row = eff.as_table_row("L2Fuzz")
        assert row["fuzzer"] == "L2Fuzz"
        assert row["mp_ratio"] == 70.0
        assert row["pr_ratio"] == 32.5
        assert row["mutation_efficiency"] == 47.25
        assert row["pps"] == 100.0

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=100)
    def test_efficiency_bounded(self, malformed, rejections):
        eff = MutationEfficiency(
            transmitted=10_000,
            malformed=malformed,
            received=10_000,
            rejections=rejections,
            elapsed_seconds=1.0,
        )
        assert 0.0 <= eff.mutation_efficiency <= 1.0

    def test_measure_from_sniffer(self):
        sniffer = PacketSniffer()
        sniffer.observe_sent(_garbage_packet(), 0.0)
        sniffer.observe_sent(echo_request(), 0.1)
        sniffer.observe_received(command_reject(0, 1), 0.2)
        sniffer.observe_received(L2capPacket(CommandCode.ECHO_RSP, 1), 0.3)
        eff = measure(sniffer, elapsed_seconds=2.0)
        assert eff.mp_ratio == 0.5
        assert eff.pr_ratio == 0.5
        assert eff.packets_per_second == 1.0


class TestCurves:
    def _sniffer(self, n=10):
        sniffer = PacketSniffer()
        for i in range(n):
            sniffer.observe_sent(
                _garbage_packet() if i % 2 == 0 else echo_request(), float(i)
            )
            sniffer.observe_received(
                command_reject(0, 1) if i % 5 == 0 else L2capPacket(CommandCode.ECHO_RSP, 1),
                float(i),
            )
        return sniffer

    def test_mp_curve_is_monotonic(self):
        points = mp_curve(self._sniffer(50), sample_every=10)
        xs = [p.x for p in points]
        ys = [p.y for p in points]
        assert xs == sorted(xs)
        assert ys == sorted(ys)

    def test_mp_curve_final_point_matches_totals(self):
        sniffer = self._sniffer(50)
        points = mp_curve(sniffer, sample_every=7)
        assert points[-1].x == sniffer.transmitted_count()
        assert points[-1].y == sniffer.malformed_count()

    def test_pr_curve_final_point_matches_totals(self):
        sniffer = self._sniffer(50)
        points = pr_curve(sniffer, sample_every=7)
        assert points[-1].x == sniffer.received_count()
        assert points[-1].y == sniffer.rejection_count()

    def test_empty_trace_yields_single_origin_point(self):
        points = mp_curve(PacketSniffer())
        assert len(points) == 1
        assert points[0].x == 0

    def test_ascii_rendering_does_not_crash(self):
        text = render_ascii_curve(mp_curve(self._sniffer(30)), label="MP")
        assert "MP" in text
        assert render_ascii_curve([], label="empty") == "empty: (no data)"
