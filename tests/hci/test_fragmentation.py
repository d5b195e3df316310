"""Tests for ACL fragmentation and recombination."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.packet_queue import PacketQueue
from repro.hci.fragmentation import Reassembler, fragment
from repro.hci.packets import AclPacket, PB_CONTINUATION, PB_FIRST_FLUSHABLE
from repro.l2cap.constants import CommandCode
from repro.l2cap.packets import connection_request, echo_request

from tests.conftest import make_rig


def _wire(payload_size: int) -> bytes:
    return echo_request(b"\x55" * payload_size).encode()


class TestFragment:
    def test_small_frame_single_fragment(self):
        packets = fragment(b"abcd", handle=0x0B, acl_mtu=16)
        assert len(packets) == 1
        assert packets[0].pb_flag == PB_FIRST_FLUSHABLE

    def test_large_frame_splits_with_continuations(self):
        payload = _wire(40)
        packets = fragment(payload, handle=0x0B, acl_mtu=16)
        assert len(packets) == (len(payload) + 15) // 16
        assert packets[0].pb_flag == PB_FIRST_FLUSHABLE
        assert all(p.pb_flag == PB_CONTINUATION for p in packets[1:])
        assert b"".join(p.payload for p in packets) == payload

    def test_zero_mtu_rejected(self):
        with pytest.raises(ValueError):
            fragment(b"x", handle=1, acl_mtu=0)

    def test_empty_payload(self):
        packets = fragment(b"", handle=1, acl_mtu=8)
        assert len(packets) == 1


class TestReassembler:
    def test_round_trip(self):
        payload = _wire(50)
        reassembler = Reassembler()
        outputs = [
            reassembler.feed(p) for p in fragment(payload, handle=0x0B, acl_mtu=12)
        ]
        frames = [o for o in outputs if o is not None]
        assert frames == [payload]

    def test_interleaved_handles(self):
        a = _wire(30)
        b = _wire(20)
        frags_a = fragment(a, handle=1, acl_mtu=8)
        frags_b = fragment(b, handle=2, acl_mtu=8)
        reassembler = Reassembler()
        outputs = []
        for pair in zip(frags_a, frags_b):
            for packet in pair:
                result = reassembler.feed(packet)
                if result is not None:
                    outputs.append(result)
        for packet in frags_a[len(frags_b):] + frags_b[len(frags_a):]:
            result = reassembler.feed(packet)
            if result is not None:
                outputs.append(result)
        assert sorted(outputs, key=len) == sorted([a, b], key=len)

    def test_orphan_continuation_dropped(self):
        reassembler = Reassembler()
        orphan = AclPacket(handle=1, payload=b"zzz", pb_flag=PB_CONTINUATION)
        assert reassembler.feed(orphan) is None
        assert reassembler.dropped_fragments == 1

    def test_fresh_start_discards_half_frame(self):
        reassembler = Reassembler()
        first = fragment(_wire(60), handle=1, acl_mtu=16)[0]
        reassembler.feed(first)
        complete = _wire(2)
        result = reassembler.feed(AclPacket(handle=1, payload=complete))
        assert result == complete
        assert reassembler.dropped_fragments == 1

    def test_reassembles_a_frame_stream(self):
        payloads = [_wire(5), _wire(45), _wire(0)]
        packets = []
        for payload in payloads:
            packets.extend(fragment(payload, handle=3, acl_mtu=10))
        reassembler = Reassembler()
        frames = [reassembler.feed(packet) for packet in packets]
        assert [frame for frame in frames if frame is not None] == payloads

    def test_incomplete_stream_yields_no_frame(self):
        packets = fragment(_wire(60), handle=1, acl_mtu=16)[:-1]
        reassembler = Reassembler()
        assert [reassembler.feed(packet) for packet in packets] == [None] * len(packets)

    @given(
        st.integers(min_value=0, max_value=120),
        st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=200)
    def test_round_trip_property(self, payload_size, acl_mtu):
        payload = _wire(payload_size)
        packets = fragment(payload, handle=9, acl_mtu=acl_mtu)
        reassembler = Reassembler()
        frames = [reassembler.feed(packet) for packet in packets]
        assert frames == [None] * (len(packets) - 1) + [payload]


class TestFragmentedQueue:
    def test_fragmented_exchange_works_end_to_end(self):
        """A queue with a tiny controller buffer still fuzzes correctly."""
        device, link, _ = make_rig()
        queue = PacketQueue(link, acl_mtu=8)
        responses = queue.send(echo_request(b"0123456789abcdef"))
        assert responses[0].code == CommandCode.ECHO_RSP
        assert responses[0].tail == b"0123456789abcdef"

    def test_fragmented_connection_flow(self):
        from repro.l2cap.constants import ConnectionResult, Psm

        device, link, _ = make_rig()
        queue = PacketQueue(link, acl_mtu=6)
        responses = queue.send(connection_request(psm=Psm.SDP, scid=0x60))
        rsp = next(r for r in responses if r.code == CommandCode.CONNECTION_RSP)
        assert rsp.fields["result"] == ConnectionResult.SUCCESS

    def test_fragments_counted_once_in_the_trace(self):
        """The sniffer counts L2CAP packets, not ACL fragments."""
        device, link, _ = make_rig()
        queue = PacketQueue(link, acl_mtu=4)
        queue.send(echo_request(b"a long enough echo payload"))
        assert queue.sniffer.transmitted_count() == 1
        assert link.stats.frames_sent > 1
