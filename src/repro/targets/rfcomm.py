"""The RFCOMM fuzz target (paper §V: the method transferred).

Absorbs the old standalone ``RfcommFuzzer`` into the campaign engine:
the mux walk (SABM on DLCI 0 → control connected → SABM on a data DLCI
→ data connected) becomes a three-state guide, DLCI mutation becomes its
mutator (see :class:`~repro.targets.base.FuzzTarget`), and crashes surface as
ordinary campaign :class:`~repro.core.detection.Finding` objects — so
RFCOMM findings flow through the shared ``finding_key()`` and dedupe
against the fleet and corpus databases like any other protocol's (the
standalone fuzzer bucketed by a raw ad-hoc tuple and never deduped).

Frames ride as L2CAP data frames on the RFCOMM channel, exactly as on
a real link, so the transport, sniffer, corpus and replay machinery is
reused unchanged.
"""

from __future__ import annotations

import dataclasses
import enum
import random
from collections.abc import Iterable

from repro.core.config import FuzzConfig
from repro.core.mutation import draw_garbage, random_bytes
from repro.l2cap.constants import Psm
from repro.l2cap.packets import L2capPacket
from repro.rfcomm.constants import CONTROL_DLCI, FrameType, MAX_DLCI
from repro.rfcomm.frames import RfcommFrame, disc, sabm, uih
from repro.targets.base import (
    FuzzTarget,
    GuidedPosition,
    open_l2cap_channel,
    register_target,
    wire_data_frame,
    wire_data_frame_fast,
)

#: The data DLCI the guide opens (server channel 1, responder side).
DATA_DLCI = 3


class RfcommMuxState(enum.Enum):
    """The mux states the guide routes through, shallow to deep."""

    MUX_CLOSED = "MUX_CLOSED"
    CONTROL_OPEN = "CONTROL_OPEN"
    DATA_OPEN = "DATA_OPEN"


#: Valid frame types per mux state (the §V analogue of Table III).
STATE_FRAME_TYPES: dict[RfcommMuxState, tuple[FrameType, ...]] = {
    RfcommMuxState.MUX_CLOSED: (FrameType.SABM,),
    RfcommMuxState.CONTROL_OPEN: (FrameType.SABM, FrameType.UIH),
    RfcommMuxState.DATA_OPEN: (FrameType.UIH, FrameType.DISC),
}

RFCOMM_PLAN: tuple[RfcommMuxState, ...] = (
    RfcommMuxState.MUX_CLOSED,
    RfcommMuxState.CONTROL_OPEN,
    RfcommMuxState.DATA_OPEN,
)


@dataclasses.dataclass
class RfcommChannel:
    """The L2CAP channel the RFCOMM session rides on."""

    our_cid: int
    target_cid: int


class _RfcommGuide:
    """Routes the target's mux into each plan state with valid frames.

    Coverage is *confirmed*, not assumed: a state only lands in
    :attr:`confirmed_states` when the mux answered the routing frames
    the way a mux in that state must (UA for each SABM, any reply for
    the closed posture) — the protocol analogue of L2CAP's
    wire-inferred coverage, and the verification the old standalone
    fuzzer's ``_expect_ua`` performed.
    """

    def __init__(self, queue, scan, our_base_cid: int = 0x0090) -> None:
        self.queue = queue
        self.scan = scan
        self._next_cid = our_base_cid
        self._channel: RfcommChannel | None = None
        self.confirmed_states: set[RfcommMuxState] = set()

    def plan(self) -> tuple[RfcommMuxState, ...]:
        return RFCOMM_PLAN

    def enter(self, state: RfcommMuxState) -> GuidedPosition:
        channel = self._ensure_channel()
        # Normalise to the intended mux posture with valid frames. Fuzz
        # frames between visits may have opened or closed arbitrary
        # DLCIs, so every route is idempotent from any posture.
        if state is RfcommMuxState.MUX_CLOSED:
            replies = self._exchange_frame(channel, disc(DATA_DLCI))
            replies += self._exchange_frame(channel, disc(CONTROL_DLCI))
            # DISC is answered (UA or DM) by any live mux; either reply
            # proves the mux is reachable with every DLCI torn down.
            confirmed = bool(replies)
        elif state is RfcommMuxState.CONTROL_OPEN:
            self._exchange_frame(channel, disc(DATA_DLCI))
            replies = self._exchange_frame(channel, sabm(CONTROL_DLCI))
            confirmed = _ua_for(replies, CONTROL_DLCI)
        else:
            control_up = _ua_for(
                self._exchange_frame(channel, sabm(CONTROL_DLCI)), CONTROL_DLCI
            )
            data_up = _ua_for(
                self._exchange_frame(channel, sabm(DATA_DLCI)), DATA_DLCI
            )
            confirmed = control_up and data_up
        if confirmed:
            self.confirmed_states.add(state)
        return GuidedPosition(state=state, label="Mux", context=channel)

    def leave(self, position: GuidedPosition) -> None:
        """Valid teardown: close the DLCIs so the next route starts clean."""
        channel = position.context
        self._exchange_frame(channel, disc(DATA_DLCI))
        self._exchange_frame(channel, disc(CONTROL_DLCI))

    def on_target_reset(self) -> None:
        """The cached channel died with the old stack; reconnect lazily."""
        self._channel = None

    # -- plumbing -------------------------------------------------------------------

    def _ensure_channel(self) -> RfcommChannel:
        if self._channel is not None:
            return self._channel
        our_cid = self._next_cid
        self._next_cid += 1
        target_cid = open_l2cap_channel(
            self.queue,
            Psm.RFCOMM,
            our_cid,
            "target refuses unpaired RFCOMM connections; the rfcomm "
            "target needs PSM 0x0003 pairing-free (FuzzSession prepares "
            "profile devices automatically)",
        )
        self._channel = RfcommChannel(our_cid=our_cid, target_cid=target_cid)
        return self._channel

    def _exchange_frame(
        self, channel: RfcommChannel, frame: RfcommFrame
    ) -> list[RfcommFrame]:
        """Send one valid mux frame; return the mux's decoded replies."""
        replies: list[RfcommFrame] = []
        for response in self.queue.send(
            wire_data_frame(channel.target_cid, frame.encode())
        ):
            if response.header_cid != channel.our_cid:
                continue
            try:
                replies.append(RfcommFrame.decode(response.tail))
            except Exception:
                continue
        return replies


def _ua_for(replies: list[RfcommFrame], dlci: int) -> bool:
    """Whether the mux acknowledged *dlci* with a UA."""
    return any(
        reply.frame_type == FrameType.UA and reply.dlci == dlci
        for reply in replies
    )


class _RfcommMutator:
    """DLCI core-field mutation (the old fuzzer's Algorithm-1 transfer).

    The DLCI — the channel-selecting core field — is drawn over its full
    range ignoring which DLCIs are actually open; the dependent fields
    (length, FCS) stay valid so the mux parses the frame; a garbage tail
    rides beyond the declared frame end.
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

    def _fuzz_payload(self, command: FrameType) -> bytes:
        """One mutated mux frame plus garbage, as raw channel payload.

        Shared by both mutation paths so their RNG draws are identical.
        The DLCI is ``randrange(0, 64)`` inlined; the frame around it
        comes pre-encoded from :data:`_FUZZ_FRAMES`, and a UIH frame
        carries four ``getrandbits(8)`` payload bytes.
        """
        getrandbits = self.rng.getrandbits
        dlci = getrandbits(7)
        while dlci > MAX_DLCI:
            dlci = getrandbits(7)
        head, check = _FUZZ_FRAMES[command][dlci]
        if command == FrameType.UIH:
            frame = head + random_bytes(getrandbits, 4) + check
        else:
            frame = head
        if self.config.append_garbage:
            frame += draw_garbage(self.rng, self.config.max_garbage, self.dictionary)
        return frame

    def mutate(
        self, position: GuidedPosition, command: FrameType, identifier: int
    ) -> L2capPacket:
        return wire_data_frame(
            position.context.target_cid, self._fuzz_payload(command)
        )

    def mutate_wire(
        self, position: GuidedPosition, command: FrameType, identifiers
    ) -> list[L2capPacket]:
        """Bytes-level fast path: same payloads, pre-assembled wire frames."""
        target_cid = position.context.target_cid
        return [
            wire_data_frame_fast(target_cid, self._fuzz_payload(command))
            for _ in identifiers
        ]


def _fuzz_frame_parts() -> dict:
    """The mutator's frames, encoded once by the codec.

    Per frame type the mutator sends, one ``(head, check)`` per DLCI: a
    UIH frame with a 4-byte payload is ``head + payload + check`` (its
    FCS covers address and control only); any other frame is ``head``
    whole, FCS included. At most 3 x 64 entries.
    """
    parts = {}
    for frame_type in {kind for kinds in STATE_FRAME_TYPES.values() for kind in kinds}:
        rows = []
        for dlci in range(MAX_DLCI + 1):
            if frame_type == FrameType.UIH:
                encoded = uih(dlci, bytes(4)).encode()
                rows.append((encoded[:3], encoded[-1:]))
            else:
                rows.append((RfcommFrame(dlci, frame_type).encode(), b""))
        parts[frame_type] = tuple(rows)
    return parts


_FUZZ_FRAMES = _fuzz_frame_parts()


@register_target
class RfcommTarget(FuzzTarget):
    """Stateful RFCOMM mux fuzzing over a live L2CAP channel."""

    name = "rfcomm"

    def state_plan(self) -> tuple[RfcommMuxState, ...]:
        return RFCOMM_PLAN

    def build_guide(self, queue, scan) -> _RfcommGuide:
        return _RfcommGuide(queue, scan)

    def build_mutator(
        self,
        config: FuzzConfig,
        rng: random.Random,
        dictionary: Iterable[bytes] = (),
    ) -> _RfcommMutator:
        return _RfcommMutator(config, rng, dictionary)

    def commands_for(self, position: GuidedPosition) -> tuple[FrameType, ...]:
        return tuple(sorted(STATE_FRAME_TYPES[position.state]))

    # -- codec hooks ----------------------------------------------------------------

    def encode_payload(self, frame: RfcommFrame) -> bytes:
        return frame.encode()

    def decode_payload(self, raw: bytes) -> RfcommFrame:
        return RfcommFrame.decode(raw)

    def is_structurally_valid(self, payload: bytes) -> bool:
        """The mux parses the frame (FCS and length agree)."""
        try:
            RfcommFrame.decode(payload)
        except Exception:
            return False
        return True

    # -- device wiring --------------------------------------------------------------

    def prepare_device(self, device, armed: bool = True) -> None:
        """Mount the real mux and lift the pairing gate (paired dongle).

        The injected UIH-overflow bug arms with the device, mirroring
        how profile vulnerabilities behave for L2CAP campaigns.
        """
        import dataclasses as _dc

        from repro.rfcomm.mux import RfcommMux
        from repro.stack.services import ServiceRecord

        record = device.services.lookup(Psm.RFCOMM)
        if record is None:
            device.services.override(ServiceRecord(Psm.RFCOMM, "RFCOMM"))
        elif record.requires_pairing:
            device.services.override(_dc.replace(record, requires_pairing=False))
        mux = RfcommMux(server_channels=(1,), vulnerable=armed)
        device.engine.data_handlers[Psm.RFCOMM] = mux.handle_payload
        device.rfcomm_mux = mux
