"""Tests for the virtual link and simulated clock."""

from __future__ import annotations

import random

import pytest

from repro.errors import (
    ConnectionFailedError,
    TargetCrashedError,
    TargetTimeoutError,
)
from repro.hci.transport import SimClock, VirtualLink
from repro.stack.crash import CrashKind, CrashReport, DumpKind


def _crash(kind=CrashKind.DOS, silent=False):
    return CrashReport(
        vulnerability_id="test",
        kind=kind,
        dump_kind=DumpKind.NONE,
        summary="test crash",
        function="f",
        fault_address=0,
        trigger_description="pkt",
        silent=silent,
    )


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_advance_accumulates(self):
        clock = SimClock()
        clock.advance(1.5)
        clock.advance(0.5)
        assert clock.now == pytest.approx(2.0)

    def test_negative_advance_raises(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1)


class TestVirtualLink:
    def test_echo_through_link(self):
        link = VirtualLink(tx_cost=0.1)
        link.attach(lambda frame: [frame])  # loopback remote
        link.send_frame(b"ping")
        assert list(link.inbound) == [b"ping"]
        assert link.clock.now == pytest.approx(0.1)

    def test_no_remote_means_timeout(self):
        link = VirtualLink()
        with pytest.raises(TargetTimeoutError):
            link.send_frame(b"x")

    def test_silent_remote_queues_nothing(self):
        link = VirtualLink()
        link.attach(lambda frame: [])
        link.send_frame(b"x")
        assert not link.inbound

    def test_crash_takes_link_down_with_mapped_error(self):
        def dying_remote(frame):
            raise TargetCrashedError(_crash(CrashKind.DOS))

        link = VirtualLink()
        link.attach(dying_remote)
        with pytest.raises(ConnectionFailedError):
            link.send_frame(b"x")
        assert link.down_error is ConnectionFailedError
        with pytest.raises(ConnectionFailedError):
            link.send_frame(b"y")

    def test_silent_crash_maps_to_timeout(self):
        def dying_remote(frame):
            raise TargetCrashedError(_crash(CrashKind.CRASH, silent=True))

        link = VirtualLink()
        link.attach(dying_remote)
        with pytest.raises(TargetTimeoutError):
            link.send_frame(b"x")

    def test_restore_brings_link_back(self):
        def dying_remote(frame):
            raise TargetCrashedError(_crash(CrashKind.DOS))

        link = VirtualLink()
        link.attach(dying_remote)
        with pytest.raises(ConnectionFailedError):
            link.send_frame(b"x")
        link.attach(lambda frame: [frame])  # the reset device
        link.restore()
        link.send_frame(b"ok")
        assert list(link.inbound) == [b"ok"]

    def test_stats_count_frames(self):
        link = VirtualLink()
        link.attach(lambda frame: [frame, frame])
        link.send_frame(b"a")
        assert link.stats.frames_sent == 1
        assert link.stats.frames_received == 2
        assert len(link.inbound) == 2

    def test_drain_returns_all(self):
        """Every reply lands on the inbound queue, in the remote's order."""
        link = VirtualLink()
        link.attach(lambda frame: [frame + b"1", frame + b"2"])
        link.send_frame(b"a")
        link.send_frame(b"b")
        assert list(link.inbound) == [b"a1", b"a2", b"b1", b"b2"]

    def test_loss_rate_drops_frames(self):
        link = VirtualLink(loss_rate=1.0, rng=random.Random(0))
        seen = []
        link.attach(lambda frame: seen.append(frame) or [])
        link.send_frame(b"x")
        assert not seen
        assert link.stats.frames_dropped == 1

    def test_invalid_loss_rate_raises(self):
        with pytest.raises(ValueError):
            VirtualLink(loss_rate=1.5)

