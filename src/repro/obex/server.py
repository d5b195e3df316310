"""Device-side OBEX object-push server.

Mounts on an RFCOMM DLCI (as a UIH service handler) and implements the
paper's §II.A file-transfer scenario: a connected peer can PUT objects
into the inbox and GET them back. Requests before CONNECT, unparseable
packets, and missing objects are answered with the proper OBEX error
codes — making the server a well-defined fuzzing surface of its own.
"""

from __future__ import annotations

from repro.errors import PacketDecodeError
from repro.obex.constants import (
    DEFAULT_MAX_PACKET,
    HeaderId,
    OBEX_VERSION,
    Opcode,
    ResponseCode,
)
from repro.obex.packets import ObexHeader, ObexPacket


class ObexServer:
    """A small object-push/pull server."""

    def __init__(self, max_packet: int = DEFAULT_MAX_PACKET) -> None:
        self.max_packet = max_packet
        self.connected = False
        self.inbox: dict[str, bytes] = {}
        self.requests_seen = 0

    def fork(self) -> ObexServer:
        """An independent copy of the session state and the inbox."""
        clone = ObexServer.__new__(ObexServer)
        clone.max_packet = self.max_packet
        clone.connected = self.connected
        clone.inbox = dict(self.inbox)
        clone.requests_seen = self.requests_seen
        return clone

    def handle_request(self, raw: bytes) -> bytes:
        """Process one OBEX request; always returns a response packet."""
        self.requests_seen += 1
        try:
            packet = ObexPacket.decode(raw)
        except PacketDecodeError:
            return _BAD_REQUEST
        handler = _HANDLERS.get(packet.code)
        if handler is None:
            return _BAD_REQUEST
        return handler(self, packet)

    # -- handlers (each returns the encoded response) ------------------------------

    def _on_connect(self, packet: ObexPacket) -> bytes:
        if packet.connect_extras is None:
            return _BAD_REQUEST
        self.connected = True
        return ObexPacket(
            ResponseCode.SUCCESS,
            connect_extras=(OBEX_VERSION, 0x00, self.max_packet),
        ).encode()

    def _on_disconnect(self, _packet: ObexPacket) -> bytes:
        if not self.connected:
            return _FORBIDDEN
        self.connected = False
        return _SUCCESS

    def _on_put(self, packet: ObexPacket) -> bytes:
        if not self.connected:
            return _FORBIDDEN
        name = packet.header(HeaderId.NAME)
        if not name:
            return _BAD_REQUEST
        body = packet.header(HeaderId.END_OF_BODY)
        if body is None:
            body = packet.header(HeaderId.BODY)
        if body is None:
            return _LENGTH_REQUIRED
        self.inbox[str(name)] = bytes(body)
        return _SUCCESS

    def _on_get(self, packet: ObexPacket) -> bytes:
        if not self.connected:
            return _FORBIDDEN
        name = packet.header(HeaderId.NAME)
        if not name or str(name) not in self.inbox:
            return _NOT_FOUND
        body = self.inbox[str(name)]
        return ObexPacket(
            ResponseCode.SUCCESS,
            (
                ObexHeader(HeaderId.LENGTH, len(body)),
                ObexHeader(HeaderId.END_OF_BODY, body),
            ),
        ).encode()


#: The header-less responses, pre-encoded.
_BAD_REQUEST = ObexPacket(ResponseCode.BAD_REQUEST).encode()
_FORBIDDEN = ObexPacket(ResponseCode.FORBIDDEN).encode()
_LENGTH_REQUIRED = ObexPacket(ResponseCode.LENGTH_REQUIRED).encode()
_NOT_FOUND = ObexPacket(ResponseCode.NOT_FOUND).encode()
_SUCCESS = ObexPacket(ResponseCode.SUCCESS).encode()


#: Request dispatch, resolved once rather than per request.
_HANDLERS = {
    Opcode.CONNECT: ObexServer._on_connect,
    Opcode.DISCONNECT: ObexServer._on_disconnect,
    Opcode.PUT: ObexServer._on_put,
    Opcode.PUT_FINAL: ObexServer._on_put,
    Opcode.GET: ObexServer._on_get,
    Opcode.GET_FINAL: ObexServer._on_get,
}
