"""Tests for the OBEX codec, server, and the full Fig. 1 stack vertical."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.packet_queue import PacketQueue
from repro.errors import PacketDecodeError
from repro.hci.transport import VirtualLink
from repro.l2cap.constants import CommandCode, ConnectionResult, Psm
from repro.l2cap.packets import L2capPacket, connection_request
from repro.obex.constants import (
    HeaderId,
    HeaderLayout,
    Opcode,
    ResponseCode,
    layout_of,
)
from repro.obex.packets import (
    ObexHeader,
    ObexPacket,
    connect_request,
    decode_headers,
    disconnect_request,
    get_request,
    put_request,
)
from repro.obex.server import ObexServer
from repro.rfcomm.frames import RfcommFrame, sabm, uih
from repro.rfcomm.mux import RfcommMux
from repro.stack.device import DeviceMeta, VirtualDevice
from repro.stack.services import ServiceDirectory, ServiceRecord
from repro.stack.vendors import BLUEDROID


class TestHeaderCodec:
    def test_unicode_header_round_trip(self):
        raw = ObexHeader(HeaderId.NAME, "photo.jpg").encode()
        headers = decode_headers(raw)
        assert headers[0].value == "photo.jpg"

    def test_bytes_header_round_trip(self):
        raw = ObexHeader(HeaderId.END_OF_BODY, b"\x00\x01\x02").encode()
        assert decode_headers(raw)[0].value == b"\x00\x01\x02"

    def test_four_byte_header_round_trip(self):
        raw = ObexHeader(HeaderId.LENGTH, 123456).encode()
        assert decode_headers(raw)[0].value == 123456

    def test_one_byte_header_round_trip(self):
        raw = ObexHeader(HeaderId.SRM, 1).encode()
        assert decode_headers(raw)[0].value == 1

    def test_truncated_header_raises(self):
        with pytest.raises(PacketDecodeError):
            decode_headers(bytes([HeaderId.NAME, 0x00]))

    def test_layout_is_the_top_two_bits(self):
        for header_id in range(256):
            assert layout_of(header_id) is HeaderLayout(header_id & 0xC0)

    @given(st.text(max_size=20), st.binary(max_size=40))
    @settings(max_examples=100)
    def test_mixed_headers_property(self, name, body):
        raw = (
            ObexHeader(HeaderId.NAME, name).encode()
            + ObexHeader(HeaderId.BODY, body).encode()
        )
        headers = decode_headers(raw)
        assert headers[0].value == name
        assert headers[1].value == body


class TestPacketCodec:
    def test_connect_round_trip(self):
        packet = connect_request(max_packet=0x1000)
        decoded = ObexPacket.decode(packet.encode())
        assert decoded.code == Opcode.CONNECT
        assert decoded.connect_extras == (0x10, 0x00, 0x1000)

    def test_put_round_trip(self):
        packet = put_request("a.txt", b"hello")
        decoded = ObexPacket.decode(packet.encode())
        assert decoded.header(HeaderId.NAME) == "a.txt"
        assert decoded.header(HeaderId.END_OF_BODY) == b"hello"
        assert decoded.header(HeaderId.LENGTH) == 5

    def test_length_lie_rejected(self):
        raw = bytearray(get_request("x").encode())
        raw[2] += 1
        with pytest.raises(PacketDecodeError):
            ObexPacket.decode(bytes(raw))

    def test_missing_header_returns_none(self):
        assert disconnect_request().header(HeaderId.NAME) is None


class TestObexServer:
    def _connected_server(self):
        server = ObexServer()
        response = ObexPacket.decode(
            server.handle_request(connect_request().encode()),
            has_connect_extras=True,
        )
        assert response.code == ResponseCode.SUCCESS
        return server

    def test_connect_advertises_mtu(self):
        server = ObexServer(max_packet=0x0800)
        response = ObexPacket.decode(
            server.handle_request(connect_request().encode()),
            has_connect_extras=True,
        )
        assert response.connect_extras[2] == 0x0800

    def test_put_then_get(self):
        server = self._connected_server()
        put_rsp = ObexPacket.decode(
            server.handle_request(put_request("doc.txt", b"contents").encode())
        )
        assert put_rsp.code == ResponseCode.SUCCESS
        assert server.inbox["doc.txt"] == b"contents"
        get_rsp = ObexPacket.decode(
            server.handle_request(get_request("doc.txt").encode())
        )
        assert get_rsp.code == ResponseCode.SUCCESS
        assert get_rsp.header(HeaderId.END_OF_BODY) == b"contents"

    def test_put_before_connect_forbidden(self):
        server = ObexServer()
        response = ObexPacket.decode(
            server.handle_request(put_request("x", b"y").encode())
        )
        assert response.code == ResponseCode.FORBIDDEN

    def test_get_missing_object_not_found(self):
        server = self._connected_server()
        response = ObexPacket.decode(
            server.handle_request(get_request("nope").encode())
        )
        assert response.code == ResponseCode.NOT_FOUND

    def test_garbage_request_bad_request(self):
        server = self._connected_server()
        response = ObexPacket.decode(server.handle_request(b"\xff\xff"))
        assert response.code == ResponseCode.BAD_REQUEST

    def test_put_without_body_length_required(self):
        server = self._connected_server()
        packet = ObexPacket(Opcode.PUT_FINAL, (ObexHeader(HeaderId.NAME, "x"),))
        response = ObexPacket.decode(server.handle_request(packet.encode()))
        assert response.code == ResponseCode.LENGTH_REQUIRED

    def test_disconnect(self):
        server = self._connected_server()
        response = ObexPacket.decode(
            server.handle_request(disconnect_request().encode())
        )
        assert response.code == ResponseCode.SUCCESS
        assert not server.connected


class TestFullStackVertical:
    """The paper's §II.A file-transfer scenario: OBEX/RFCOMM/L2CAP."""

    def _build_stack(self):
        obex = ObexServer()
        mux = RfcommMux(server_channels=(1,), service_handlers={3: obex.handle_request})
        services = ServiceDirectory(
            [
                ServiceRecord(Psm.SDP, "SDP"),
                ServiceRecord(Psm.RFCOMM, "OBEX Object Push"),
            ]
        )
        device = VirtualDevice(
            meta=DeviceMeta("AA:BB:CC:00:00:20", "ftp-target", "laptop"),
            personality=BLUEDROID,
            services=services,
        )
        device.engine.data_handlers[Psm.RFCOMM] = mux.handle_payload
        link = VirtualLink(clock=device.clock)
        device.attach_to(link)
        return obex, mux, PacketQueue(link)

    def _rfcomm_exchange(self, queue, target_cid, our_cid, frame):
        packet = L2capPacket(
            code=0, identifier=0, header_cid=target_cid,
            tail=frame.encode(), fill_defaults=False,
        )
        for response in queue.send(packet):
            if response.header_cid == our_cid:
                return RfcommFrame.decode(response.tail)
        return None

    def test_file_push_through_all_three_layers(self):
        obex, mux, queue = self._build_stack()
        # Layer 1: L2CAP channel to PSM 0x0003.
        responses = queue.send(connection_request(psm=Psm.RFCOMM, scid=0x00A0))
        rsp = next(r for r in responses if r.code == CommandCode.CONNECTION_RSP)
        assert rsp.fields["result"] == ConnectionResult.SUCCESS
        target_cid = rsp.fields["dcid"]
        # Layer 2: RFCOMM control + data DLCI.
        assert self._rfcomm_exchange(queue, target_cid, 0x00A0, sabm(0)) is not None
        assert self._rfcomm_exchange(queue, target_cid, 0x00A0, sabm(3)) is not None
        # Layer 3: OBEX connect + put.
        reply = self._rfcomm_exchange(
            queue, target_cid, 0x00A0, uih(3, connect_request().encode())
        )
        obex_rsp = ObexPacket.decode(reply.payload, has_connect_extras=True)
        assert obex_rsp.code == ResponseCode.SUCCESS
        reply = self._rfcomm_exchange(
            queue, target_cid, 0x00A0,
            uih(3, put_request("notes.txt", b"paper section II.A").encode()),
        )
        assert ObexPacket.decode(reply.payload).code == ResponseCode.SUCCESS
        assert obex.inbox["notes.txt"] == b"paper section II.A"
