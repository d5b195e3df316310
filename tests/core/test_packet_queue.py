"""Tests for the packet queue (Tx/Rx pump with trace capture)."""

from __future__ import annotations

import pytest

from repro.errors import ConnectionFailedError
from repro.l2cap.constants import CommandCode, Psm
from repro.l2cap.packets import connection_request, echo_request
from repro.stack.vulnerabilities import RTKIT_PSM_SHUTDOWN

from tests.conftest import make_rig


class TestPacketQueue:
    def test_exchange_traces_both_directions(self):
        _, _, queue = make_rig()
        responses = queue.send(echo_request(b"x"))
        assert len(responses) == 1
        assert queue.sniffer.transmitted_count() == 1
        assert queue.sniffer.received_count() == 1

    def test_identifiers_wrap_1_to_255(self):
        _, _, queue = make_rig()
        first = queue.take_identifier()
        assert first == 1
        for _ in range(253):
            queue.take_identifier()
        assert queue.take_identifier() == 255
        assert queue.take_identifier() == 1

    def test_send_charges_clock(self):
        _, link, queue = make_rig(tx_cost=0.25)
        queue.send(echo_request())
        assert queue.clock.now == pytest.approx(0.25)

    def test_failed_send_still_counted_as_transmitted(self):
        """A packet that kills the target was still transmitted."""
        device, _, queue = make_rig(
            vulnerabilities=(RTKIT_PSM_SHUTDOWN,), armed=True
        )
        trigger = connection_request(psm=0x0300, scid=0x60)
        with pytest.raises(Exception):
            queue.send(trigger)
        assert queue.sniffer.transmitted_count() == 1

    def test_drain_decodes_responses(self):
        device, link, queue = make_rig()
        link.attach(device.handle_acl_frame)  # bytes only: answers queue up
        responses = queue.send(connection_request(psm=Psm.SDP, scid=0x60))
        assert responses[0].code == CommandCode.CONNECTION_RSP
        assert not link.inbound
        assert queue.drain() == []

    def test_direct_hop_returns_responses_unqueued(self):
        _, link, queue = make_rig()
        responses = queue.send(connection_request(psm=Psm.SDP, scid=0x60))
        assert responses[0].code == CommandCode.CONNECTION_RSP
        assert not link.inbound
        assert queue.sniffer.received_count() == len(responses)
        assert [entry.packet for entry in queue.sniffer.received()] == responses

    def test_identifier_batches_follow_the_single_allocator(self):
        _, _, queue = make_rig()
        twin = make_rig()[2]
        for count in (3, 250, 7, 1, 255, 300, 2):
            expected = [twin.take_identifier() for _ in range(count)]
            assert queue.take_identifiers(count) == expected
        queue.rewind_identifiers(5)
        assert queue.take_identifier() == 6

    def test_acl_prefix_matches_encode_acl(self):
        import struct

        from repro.hci.packets import encode_acl

        _, _, queue = make_rig()
        wire = echo_request(b"prefix-check").encode()
        fast = queue._acl_prefix + struct.pack("<H", len(wire)) + wire
        assert fast == encode_acl(queue.handle, wire)

    def test_out_of_range_handle_rejected_at_construction(self):
        from repro.core.packet_queue import PacketQueue
        from repro.errors import PacketEncodeError
        from repro.hci.transport import VirtualLink

        with pytest.raises(PacketEncodeError, match="handle"):
            PacketQueue(VirtualLink(), handle=0x1FFF)
