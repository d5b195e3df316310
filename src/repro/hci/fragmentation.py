"""ACL fragmentation and recombination (Core 5.2 Vol 4 Part E §5.4.2).

Controllers carry L2CAP frames in ACL packets no larger than the
controller's ACL buffer: the first fragment is flagged
``PB_FIRST_FLUSHABLE`` and the rest ``PB_CONTINUATION``. The receiving
host recombines per connection handle, using the L2CAP basic-header
length to know when a frame is complete.

The virtual testbed defaults to an unfragmented path (one frame per ACL
packet); this module supplies the faithful fragmenting sender and the
reassembling receiver, exercised by the property tests and available on
the :class:`~repro.core.packet_queue.PacketQueue` via ``acl_mtu``.
"""

from __future__ import annotations

import struct

from repro.hci.packets import AclPacket, PB_CONTINUATION, PB_FIRST_FLUSHABLE
from repro.l2cap.constants import L2CAP_HEADER_LEN


def fragment(payload: bytes, handle: int, acl_mtu: int) -> list[AclPacket]:
    """Split one L2CAP frame into ACL packets of at most *acl_mtu* bytes.

    :raises ValueError: for a non-positive MTU.
    """
    if acl_mtu < 1:
        raise ValueError("ACL MTU must be positive")
    if not payload:
        return [AclPacket(handle=handle, payload=b"", pb_flag=PB_FIRST_FLUSHABLE)]
    packets = []
    for offset in range(0, len(payload), acl_mtu):
        chunk = payload[offset : offset + acl_mtu]
        pb_flag = PB_FIRST_FLUSHABLE if offset == 0 else PB_CONTINUATION
        packets.append(AclPacket(handle=handle, payload=chunk, pb_flag=pb_flag))
    return packets


class Reassembler:
    """Per-handle recombination of fragmented ACL traffic.

    Feed ACL packets in arrival order; completed L2CAP frames come back.
    Malformed sequences follow controller behaviour: a continuation with
    no start in progress is dropped, a fresh start discards any
    half-built frame, and over-long accumulations are discarded.
    """

    def __init__(self) -> None:
        self._pending: dict[int, bytearray] = {}
        self._expected: dict[int, int] = {}
        self.dropped_fragments = 0

    def fork(self) -> Reassembler:
        """An independent copy, half-built frames included."""
        clone = Reassembler.__new__(Reassembler)
        clone._pending = {
            handle: bytearray(buffer) for handle, buffer in self._pending.items()
        }
        clone._expected = dict(self._expected)
        clone.dropped_fragments = self.dropped_fragments
        return clone

    def feed(self, packet: AclPacket) -> bytes | None:
        """Consume one ACL packet; return a completed L2CAP frame or None."""
        handle = packet.handle
        if packet.pb_flag == PB_CONTINUATION:
            if handle not in self._pending:
                self.dropped_fragments += 1
                return None
            self._pending[handle].extend(packet.payload)
        else:
            if handle in self._pending:
                self.dropped_fragments += 1  # abandoned half-frame
            self._pending[handle] = bytearray(packet.payload)
            self._expected[handle] = self._frame_length(packet.payload)

        buffer = self._pending[handle]
        expected = self._expected.get(handle)
        if expected is None and len(buffer) >= L2CAP_HEADER_LEN:
            expected = self._frame_length(bytes(buffer))
            self._expected[handle] = expected
        if expected is None:
            return None
        if len(buffer) > expected:
            # The peer sent more than the L2CAP header promised: a
            # garbage tail riding the last fragment. Deliver everything —
            # judging it is the L2CAP layer's job.
            expected = len(buffer)
        if len(buffer) == expected:
            del self._pending[handle]
            self._expected.pop(handle, None)
            return bytes(buffer)
        return None

    @staticmethod
    def _frame_length(buffer: bytes) -> int | None:
        """Total frame size promised by the L2CAP basic header."""
        if len(buffer) < L2CAP_HEADER_LEN:
            return None
        (payload_len,) = struct.unpack_from("<H", buffer, 0)
        return L2CAP_HEADER_LEN + payload_len
