"""The SDP fuzz target (paper §V: the method extends to SDP).

SDP looks stateless on the wire, but a *client session* has structure a
stateful fuzzer can exploit: a search must succeed before a record
handle is known, and an attribute read must succeed before the full
search-attribute combination is worth mutating. The guide models that
as a three-state session (IDLE → SEARCHED → ATTRIBUTED), learning live
record handles along the way so the mutator can poison them — the SDP
analogue of the CIDP mutation (a handle field that ignores the server's
actual allocation).

Mutation keeps the PDU header dependent fields valid — the pdu_id is
valid for the session state, the transaction id is fresh, and
``parameter_length`` always agrees with the bytes present so the PDU
framing parses — while the *parameters* carry abnormal core values
(random record handles, random UUID patterns, abnormal attribute-range
encodings) plus a garbage region inside the parameter block.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import random
import struct
from collections.abc import Iterable

from repro.core.config import FuzzConfig
from repro.core.mutation import draw_garbage
from repro.l2cap.constants import Psm
from repro.l2cap.packets import L2capPacket
from repro.sdp.constants import PduId, ServiceClass
from repro.sdp.data_elements import (
    ElementType,
    element_header,
    sequence,
    uint32,
    uuid16,
)
from repro.sdp.pdu import (
    NO_CONTINUATION,
    SdpPdu,
    ServiceAttributeRequest,
    ServiceSearchRequest,
    ServiceSearchResponse,
    encode_pdu,
    pack_handle_and_max,
    pack_u16,
)
from repro.targets.base import (
    FuzzTarget,
    GuidedPosition,
    open_l2cap_channel,
    register_target,
    wire_data_frame,
    wire_data_frame_fast,
)


class SdpSessionState(enum.Enum):
    """Client-session states, shallow to deep."""

    SDP_IDLE = "SDP_IDLE"
    SDP_SEARCHED = "SDP_SEARCHED"
    SDP_ATTRIBUTED = "SDP_ATTRIBUTED"


#: Valid request PDUs per session state.
STATE_PDUS: dict[SdpSessionState, tuple[PduId, ...]] = {
    SdpSessionState.SDP_IDLE: (PduId.SERVICE_SEARCH_REQUEST,),
    SdpSessionState.SDP_SEARCHED: (
        PduId.SERVICE_SEARCH_REQUEST,
        PduId.SERVICE_ATTRIBUTE_REQUEST,
    ),
    SdpSessionState.SDP_ATTRIBUTED: (
        PduId.SERVICE_SEARCH_REQUEST,
        PduId.SERVICE_ATTRIBUTE_REQUEST,
        PduId.SERVICE_SEARCH_ATTRIBUTE_REQUEST,
    ),
}

SDP_PLAN: tuple[SdpSessionState, ...] = (
    SdpSessionState.SDP_IDLE,
    SdpSessionState.SDP_SEARCHED,
    SdpSessionState.SDP_ATTRIBUTED,
)


@dataclasses.dataclass
class SdpSession:
    """Routing context: the SDP channel plus learned record handles."""

    our_cid: int
    target_cid: int
    handles: tuple[int, ...] = ()


class _SdpGuide:
    """Routes the client session through valid search/attribute steps.

    Coverage is *confirmed*: a state only lands in
    :attr:`confirmed_states` when the server answered the routing
    request with the matching response PDU (a decoded search response
    for SEARCHED, an attribute response on a live handle for
    ATTRIBUTED) — attempted routing alone never counts.
    """

    def __init__(self, queue, scan, our_base_cid: int = 0x0B00) -> None:
        self.queue = queue
        self.scan = scan
        self._next_cid = our_base_cid
        self._session: SdpSession | None = None
        self._transaction = 0
        self.confirmed_states: set[SdpSessionState] = set()

    def plan(self) -> tuple[SdpSessionState, ...]:
        return SDP_PLAN

    def enter(self, state: SdpSessionState) -> GuidedPosition:
        session = self._ensure_session()
        if state is SdpSessionState.SDP_IDLE:
            # The live channel is the whole posture.
            self.confirmed_states.add(state)
        else:
            searched = self._valid_search(session)
            if state is SdpSessionState.SDP_SEARCHED and searched:
                self.confirmed_states.add(state)
            if state is SdpSessionState.SDP_ATTRIBUTED:
                if (
                    searched
                    and session.handles
                    and self._valid_attribute(session, session.handles[0])
                ):
                    self.confirmed_states.add(state)
        return GuidedPosition(state=state, label="Discovery", context=session)

    def leave(self, position: GuidedPosition) -> None:
        """SDP sessions have no teardown beyond the channel (kept open)."""

    def on_target_reset(self) -> None:
        """The cached channel died with the old stack; reconnect lazily."""
        self._session = None

    # -- valid exchanges ------------------------------------------------------------

    def _take_transaction(self) -> int:
        self._transaction = (self._transaction + 1) & 0xFFFF
        return self._transaction

    def _ensure_session(self) -> SdpSession:
        if self._session is not None:
            return self._session
        our_cid = self._next_cid
        self._next_cid += 1
        target_cid = open_l2cap_channel(
            self.queue,
            Psm.SDP,
            our_cid,
            "SDP port did not accept a connection",
        )
        self._session = SdpSession(our_cid=our_cid, target_cid=target_cid)
        return self._session

    def _request(self, session: SdpSession, pdu: SdpPdu) -> SdpPdu | None:
        """Send one PDU; return the server's decoded reply, if any."""
        for response in self.queue.send(
            wire_data_frame(session.target_cid, pdu.encode())
        ):
            if response.header_cid != session.our_cid:
                continue
            try:
                return SdpPdu.decode(response.tail)
            except Exception:
                continue
        return None

    def _valid_search(self, session: SdpSession) -> bool:
        """One spec-clean ServiceSearchRequest; harvest the handles."""
        request = ServiceSearchRequest(
            search_pattern=sequence(uuid16(ServiceClass.PUBLIC_BROWSE_ROOT)),
            max_record_count=16,
        )
        reply = self._request(
            session,
            SdpPdu(
                PduId.SERVICE_SEARCH_REQUEST,
                self._take_transaction(),
                request.encode(),
            ),
        )
        if reply is None or reply.pdu_id != PduId.SERVICE_SEARCH_RESPONSE:
            return False
        try:
            session.handles = ServiceSearchResponse.decode(reply.parameters).handles
        except Exception:
            return False
        return True

    def _valid_attribute(self, session: SdpSession, handle: int) -> bool:
        """One spec-clean ServiceAttributeRequest on a live handle."""
        request = ServiceAttributeRequest(
            record_handle=handle,
            max_attribute_bytes=0xFFFF,
            attribute_id_list=sequence(uint32(0x0000FFFF)),
        )
        reply = self._request(
            session,
            SdpPdu(
                PduId.SERVICE_ATTRIBUTE_REQUEST,
                self._take_transaction(),
                request.encode(),
            ),
        )
        return (
            reply is not None
            and reply.pdu_id == PduId.SERVICE_ATTRIBUTE_RESPONSE
        )


class _SdpMutator:
    """Core-field mutation of SDP request parameters.

    ``D`` stays consistent (valid pdu_id for the state, fresh
    transaction id, parameter_length always exact); ``MC`` — record
    handles, UUID patterns, attribute ranges — is poisoned; a garbage
    region rides inside the parameter block beyond the meaningful
    fields, so the PDU framing still parses.
    """

    def __init__(
        self,
        config: FuzzConfig,
        rng: random.Random,
        dictionary: Iterable[bytes] = (),
    ) -> None:
        self.config = config
        self.rng = rng
        self.dictionary = tuple(tail for tail in dictionary if tail)
        self._transaction = 0x4000

    def _fuzz_payload(self, position: GuidedPosition, command: PduId) -> bytes:
        """One mutated PDU as raw channel payload (shared by both paths).

        The PDU is assembled as bytes; every draw is the inlined
        ``getrandbits`` equivalent of the ``random.Random`` call named
        beside it (the RNG identity tests pin value and stream).
        """
        rng = self.rng
        getrandbits = rng.getrandbits
        self._transaction = transaction = (self._transaction + 1) & 0xFFFF
        if command == PduId.SERVICE_ATTRIBUTE_REQUEST:
            handles = position.context.handles
            if handles and rng.random() < 0.25:
                # Off-by-noise around a live handle: the nastiest
                # neighbours. randrange(len(handles)), randrange(16).
                count = len(handles)
                bits = count.bit_length()
                index = getrandbits(bits)
                while index >= count:
                    index = getrandbits(bits)
                flip = getrandbits(5)
                while flip >= 16:
                    flip = getrandbits(5)
                handle = (handles[index] ^ (1 << flip)) & 0xFFFFFFFF
            else:
                # A record handle ignoring the server's actual allocation.
                handle = getrandbits(32)
            parameters = pack_handle_and_max(handle, getrandbits(16))
        else:
            # A random UUID pattern: randint(1, 3) uuid16 elements.
            count = getrandbits(2)
            while count >= 3:
                count = getrandbits(2)
            count += 1
            parameters = _PATTERN_HEADS[count] + b"".join(
                [_ELEMENT16(getrandbits(16)) for _ in range(count)]
            )
            parameters += pack_u16(getrandbits(16))
            if command == PduId.SERVICE_SEARCH_REQUEST:
                parameters += NO_CONTINUATION
        if command != PduId.SERVICE_SEARCH_REQUEST:
            # A one-range attribute-id list: sequence(uint32(random)).
            parameters += _RANGE_LIST(getrandbits(32)) + NO_CONTINUATION
        if self.config.append_garbage:
            parameters += draw_garbage(rng, self.config.max_garbage, self.dictionary)
        return encode_pdu(command, transaction, parameters)

    def mutate(
        self, position: GuidedPosition, command: PduId, identifier: int
    ) -> L2capPacket:
        return wire_data_frame(
            position.context.target_cid, self._fuzz_payload(position, command)
        )

    def mutate_wire(
        self, position: GuidedPosition, command: PduId, identifiers
    ) -> list[L2capPacket]:
        """Bytes-level fast path: same payloads, pre-assembled wire frames."""
        target_cid = position.context.target_cid
        return [
            wire_data_frame_fast(target_cid, self._fuzz_payload(position, command))
            for _ in identifiers
        ]


#: The request elements the SDP mutator assembles, opened by the
#: data-element codec's headers: a uuid16 element, a sequence of n of
#: them, and a one-element sequence of a uint32 (one attribute range).
_ELEMENT16 = functools.partial(
    struct.Struct(">1sH").pack, element_header(ElementType.UUID, 2)
)
_PATTERN_HEADS = {
    count: element_header(ElementType.SEQUENCE, 3 * count) for count in (1, 2, 3)
}
_RANGE_LIST = functools.partial(
    struct.Struct(">3sI").pack,
    element_header(ElementType.SEQUENCE, 5)
    + element_header(ElementType.UNSIGNED_INT, 4),
)


@register_target
class SdpTarget(FuzzTarget):
    """Stateful SDP client-session fuzzing against the real SDP server."""

    name = "sdp"

    def state_plan(self) -> tuple[SdpSessionState, ...]:
        return SDP_PLAN

    def build_guide(self, queue, scan) -> _SdpGuide:
        return _SdpGuide(queue, scan)

    def build_mutator(
        self,
        config: FuzzConfig,
        rng: random.Random,
        dictionary: Iterable[bytes] = (),
    ) -> _SdpMutator:
        return _SdpMutator(config, rng, dictionary)

    def commands_for(self, position: GuidedPosition) -> tuple[PduId, ...]:
        return tuple(sorted(STATE_PDUS[position.state]))

    # -- codec hooks ----------------------------------------------------------------

    def encode_payload(self, pdu: SdpPdu) -> bytes:
        return pdu.encode()

    def decode_payload(self, raw: bytes) -> SdpPdu:
        return SdpPdu.decode(raw)

    def is_structurally_valid(self, payload: bytes) -> bool:
        """The PDU framing parses (header and parameter length agree)."""
        try:
            SdpPdu.decode(payload)
        except Exception:
            return False
        return True
