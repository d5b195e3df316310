"""The OBEX fuzz target (GOEP: OBEX directly over L2CAP).

OBEX is the object-exchange layer of the paper's §II.A file-transfer
scenario. The guide models the session the way a client experiences it:
DISCONNECTED (only CONNECT is valid) → CONNECTED (PUT/GET/DISCONNECT
become valid) → LOADED (an object is in the inbox, so GET has something
real to address). The mutator keeps the packet framing dependent fields
valid — the declared packet length always matches the bytes present, so
the server's parser accepts the packet — while poisoning the core
addressing fields (object names, connection ids, connect parameters)
and smuggling a garbage region in as a well-formed unknown header.

The target mounts the real :class:`~repro.obex.server.ObexServer` on
the GOEP L2CAP PSM (0x1001), the Bluetooth "OBEX over L2CAP" transport,
so campaigns drive the same server the stack serves over RFCOMM.
"""

from __future__ import annotations

import dataclasses
import enum
import random
from collections.abc import Iterable

from repro.core.config import FuzzConfig
from repro.core.mutation import draw_garbage, random_bytes
from repro.l2cap.packets import L2capPacket
from repro.obex.constants import HeaderId, Opcode, ResponseCode
from repro.obex.packets import (
    ObexPacket,
    connect_request,
    pack_connect_extras,
    pack_four_byte,
    pack_length_prefixed,
    put_request,
)
from repro.targets.base import (
    FuzzTarget,
    GuidedPosition,
    open_l2cap_channel,
    register_target,
    wire_data_frame,
    wire_data_frame_fast,
)

#: GOEP L2CAP PSM (Bluetooth assigned number for OBEX over L2CAP).
OBEX_PSM = 0x1001

#: An unknown BYTES-layout header id: parses cleanly, means nothing —
#: the OBEX analogue of the Fig. 7 garbage tail.
GARBAGE_HEADER_ID = 0x4F


class ObexSessionState(enum.Enum):
    """OBEX session states, shallow to deep."""

    OBEX_DISCONNECTED = "OBEX_DISCONNECTED"
    OBEX_CONNECTED = "OBEX_CONNECTED"
    OBEX_LOADED = "OBEX_LOADED"


#: Valid request opcodes per session state.
STATE_OPCODES: dict[ObexSessionState, tuple[Opcode, ...]] = {
    ObexSessionState.OBEX_DISCONNECTED: (Opcode.CONNECT,),
    ObexSessionState.OBEX_CONNECTED: (
        Opcode.CONNECT,
        Opcode.DISCONNECT,
        Opcode.PUT_FINAL,
        Opcode.GET_FINAL,
    ),
    ObexSessionState.OBEX_LOADED: (
        Opcode.DISCONNECT,
        Opcode.PUT_FINAL,
        Opcode.GET_FINAL,
    ),
}

OBEX_PLAN: tuple[ObexSessionState, ...] = (
    ObexSessionState.OBEX_DISCONNECTED,
    ObexSessionState.OBEX_CONNECTED,
    ObexSessionState.OBEX_LOADED,
)

#: The object the guide seeds the inbox with for the LOADED state.
SEED_OBJECT = ("seed.txt", b"l2fuzz-goep-seed")


@dataclasses.dataclass
class ObexChannel:
    """The L2CAP channel the OBEX session rides on."""

    our_cid: int
    target_cid: int


class _ObexGuide:
    """Routes the OBEX session into each plan state with valid requests.

    Coverage is *confirmed*: a state only lands in
    :attr:`confirmed_states` when the server answered the routing
    request with the response that posture requires (SUCCESS for
    CONNECT and the seed PUT; any reply for the disconnected posture).
    """

    def __init__(self, queue, scan, our_base_cid: int = 0x0D00) -> None:
        self.queue = queue
        self.scan = scan
        self._next_cid = our_base_cid
        self._channel: ObexChannel | None = None
        self.confirmed_states: set[ObexSessionState] = set()

    def plan(self) -> tuple[ObexSessionState, ...]:
        return OBEX_PLAN

    def enter(self, state: ObexSessionState) -> GuidedPosition:
        channel = self._ensure_channel()
        # Idempotent normalisation: fuzz packets between visits may have
        # connected or disconnected the session arbitrarily.
        if state is ObexSessionState.OBEX_DISCONNECTED:
            code = self._request(channel, ObexPacket(Opcode.DISCONNECT).encode())
            # SUCCESS or FORBIDDEN both prove a live server that is now
            # (or already was) disconnected.
            confirmed = code is not None
        else:
            connected = (
                self._request(channel, connect_request().encode(), connect=True)
                == ResponseCode.SUCCESS
            )
            confirmed = connected
            if state is ObexSessionState.OBEX_LOADED:
                loaded = (
                    self._request(channel, put_request(*SEED_OBJECT).encode())
                    == ResponseCode.SUCCESS
                )
                confirmed = connected and loaded
        if confirmed:
            self.confirmed_states.add(state)
        return GuidedPosition(state=state, label="Session", context=channel)

    def leave(self, position: GuidedPosition) -> None:
        """Valid teardown: close the session so the next route is clean."""
        self._request(position.context, ObexPacket(Opcode.DISCONNECT).encode())

    def on_target_reset(self) -> None:
        """The cached channel died with the old stack; reconnect lazily."""
        self._channel = None

    # -- plumbing -------------------------------------------------------------------

    def _ensure_channel(self) -> ObexChannel:
        if self._channel is not None:
            return self._channel
        our_cid = self._next_cid
        self._next_cid += 1
        target_cid = open_l2cap_channel(
            self.queue,
            OBEX_PSM,
            our_cid,
            "target exposes no OBEX-over-L2CAP port (PSM 0x1001); the obex "
            "target mounts one on profile devices automatically",
        )
        self._channel = ObexChannel(our_cid=our_cid, target_cid=target_cid)
        return self._channel

    def _request(
        self, channel: ObexChannel, payload: bytes, connect: bool = False
    ) -> int | None:
        """Send one request; return the server's response code, if any."""
        for response in self.queue.send(
            wire_data_frame(channel.target_cid, payload)
        ):
            if response.header_cid != channel.our_cid:
                continue
            try:
                reply = ObexPacket.decode(
                    bytes(response.tail), has_connect_extras=connect
                )
            except Exception:
                continue
            return reply.code
        return None


class _ObexMutator:
    """Core-field mutation of OBEX requests with valid framing."""

    def __init__(
        self,
        config: FuzzConfig,
        rng: random.Random,
        dictionary: Iterable[bytes] = (),
    ) -> None:
        self.config = config
        self.rng = rng
        self.dictionary = tuple(tail for tail in dictionary if tail)

    def _fuzz_payload(self, command: Opcode) -> bytes:
        """One mutated request as raw channel payload (shared by both paths).

        The packet is assembled as bytes, header by header in the
        layout the OBEX codec writes; every draw is the inlined
        ``getrandbits`` equivalent of the ``random.Random`` call named
        beside it (the RNG identity tests pin value and stream).
        """
        rng = self.rng
        getrandbits = rng.getrandbits
        body = b""
        if command == Opcode.CONNECT:
            # Poisoned session parameters: wild version/flags/MTU claims.
            body = pack_connect_extras(getrandbits(8), getrandbits(8), getrandbits(16))
        elif command == Opcode.PUT_FINAL or command == Opcode.GET_FINAL:
            # NAME: randint(0, 12) characters of randrange(0x20, 0x7F),
            # UTF-16BE with one null terminator.
            length = getrandbits(4)
            while length >= 13:
                length = getrandbits(4)
            name = bytearray(2 * length + 2)
            for index in range(1, 2 * length, 2):
                char = getrandbits(7)
                while char >= 0x5F:
                    char = getrandbits(7)
                name[index] = char + 0x20
            body = pack_length_prefixed(HeaderId.NAME, 2 * length + 5) + name
            if command == Opcode.PUT_FINAL:
                # randint(0, 8) body bytes, then a LENGTH header claiming
                # any size at all, then the END_OF_BODY header.
                size = getrandbits(4)
                while size >= 9:
                    size = getrandbits(4)
                payload = random_bytes(getrandbits, size)
                body += pack_four_byte(HeaderId.LENGTH, getrandbits(32))
                body += pack_length_prefixed(HeaderId.END_OF_BODY, size + 3) + payload
        if rng.random() < 0.5:
            # A connection id the server never issued (CIDP analogue).
            body += pack_four_byte(HeaderId.CONNECTION_ID, getrandbits(32))
        if self.config.append_garbage:
            garbage = draw_garbage(rng, self.config.max_garbage, self.dictionary)
            if garbage:
                body += (
                    pack_length_prefixed(GARBAGE_HEADER_ID, len(garbage) + 3) + garbage
                )
        return pack_length_prefixed(command, len(body) + 3) + body

    def mutate(
        self, position: GuidedPosition, command: Opcode, identifier: int
    ) -> L2capPacket:
        return wire_data_frame(
            position.context.target_cid, self._fuzz_payload(command)
        )

    def mutate_wire(
        self, position: GuidedPosition, command: Opcode, identifiers
    ) -> list[L2capPacket]:
        """Bytes-level fast path: same payloads, pre-assembled wire frames."""
        target_cid = position.context.target_cid
        return [
            wire_data_frame_fast(target_cid, self._fuzz_payload(command))
            for _ in identifiers
        ]


@register_target
class ObexTarget(FuzzTarget):
    """Stateful OBEX session fuzzing against the real object-push server."""

    name = "obex"

    def state_plan(self) -> tuple[ObexSessionState, ...]:
        return OBEX_PLAN

    def build_guide(self, queue, scan) -> _ObexGuide:
        return _ObexGuide(queue, scan)

    def build_mutator(
        self,
        config: FuzzConfig,
        rng: random.Random,
        dictionary: Iterable[bytes] = (),
    ) -> _ObexMutator:
        return _ObexMutator(config, rng, dictionary)

    def commands_for(self, position: GuidedPosition) -> tuple[Opcode, ...]:
        return tuple(sorted(STATE_OPCODES[position.state]))

    # -- codec hooks ----------------------------------------------------------------

    def encode_payload(self, packet: ObexPacket) -> bytes:
        return packet.encode()

    def decode_payload(self, raw: bytes) -> ObexPacket:
        return ObexPacket.decode(raw)

    def is_structurally_valid(self, payload: bytes) -> bool:
        """The packet framing parses (declared length matches exactly)."""
        try:
            ObexPacket.decode(payload)
        except Exception:
            return False
        return True

    # -- device wiring --------------------------------------------------------------

    def prepare_device(self, device, armed: bool = True) -> None:
        """Mount the real OBEX server on the GOEP PSM."""
        from repro.obex.server import ObexServer
        from repro.stack.services import ServiceRecord

        if not device.services.supports(OBEX_PSM):
            device.services.override(ServiceRecord(OBEX_PSM, "OBEX Object Push"))
        server = ObexServer()
        device.engine.data_handlers[OBEX_PSM] = server.handle_request
        device.obex_server = server
