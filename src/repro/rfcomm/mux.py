"""RFCOMM multiplexer: the device-side state machine.

Each DLCI runs a small connection state machine (DISCONNECTED →
CONNECTED → DISCONNECTED); DLCI 0 is the control channel and must be up
before any data DLCI can connect — the stateful structure that makes the
paper's state-guiding technique applicable here too (§V).

The mux plugs into the host stack as the data handler for PSM 0x0003.
An optional injected bug reproduces the paper's thesis on this layer:
a UIH frame to a connected DLCI whose payload ends in a garbage pattern
the length field does not cover crashes permissive implementations.
"""

from __future__ import annotations

import dataclasses
import enum

from repro.errors import PacketDecodeError, TargetCrashedError
from repro.rfcomm.constants import CONTROL_DLCI, FrameType, MAX_DLCI
from repro.rfcomm.frames import decode_framing, dm, ua, uih
from repro.stack.crash import CrashKind, CrashReport, DumpKind
from repro.stack.engine import fork_handlers


class DlciState(enum.Enum):
    """Per-DLCI connection states."""

    DISCONNECTED = "DISCONNECTED"
    CONNECTED = "CONNECTED"


@dataclasses.dataclass
class DlciEntry:
    """Bookkeeping for one DLCI."""

    dlci: int
    state: DlciState = DlciState.DISCONNECTED


class RfcommMux:
    """Device-side RFCOMM multiplexer.

    :param server_channels: RFCOMM server channels the device exposes
        (each maps to DLCI ``channel << 1 | 1`` from the responder view).
    :param vulnerable: inject the UIH overflow bug (crashes on a data
        frame with a short declared length and a long garbage tail).
    :param strict_fcs: reject frames with a bad FCS (all real muxes do;
        False models a broken implementation for ablation).
    """

    def __init__(
        self,
        server_channels: tuple[int, ...] = (1,),
        vulnerable: bool = False,
        strict_fcs: bool = True,
        service_handlers: dict | None = None,
    ) -> None:
        self.vulnerable = vulnerable
        self.strict_fcs = strict_fcs
        #: Per-DLCI upper-layer services (payload in → payload out), e.g.
        #: an OBEX server; DLCIs without a handler run serial loopback.
        self.service_handlers = dict(service_handlers or {})
        self._dlcis: dict[int, DlciEntry] = {CONTROL_DLCI: DlciEntry(CONTROL_DLCI)}
        for channel in server_channels:
            dlci = (channel << 1) | 1
            self._dlcis[dlci & MAX_DLCI] = DlciEntry(dlci & MAX_DLCI)
            self._dlcis[(channel << 1) & MAX_DLCI] = DlciEntry((channel << 1) & MAX_DLCI)
        self.state_history: list[tuple[int, DlciState]] = []
        self.frames_rejected = 0
        self.frames_accepted = 0

    def fork(self) -> RfcommMux:
        """An independent copy: DLCI states, history, counters and any
        stateful per-DLCI service are copied."""
        clone = RfcommMux.__new__(RfcommMux)
        clone.vulnerable = self.vulnerable
        clone.strict_fcs = self.strict_fcs
        clone.service_handlers = fork_handlers(self.service_handlers, {})
        clone._dlcis = {
            dlci: DlciEntry(entry.dlci, entry.state)
            for dlci, entry in self._dlcis.items()
        }
        clone.state_history = list(self.state_history)
        clone.frames_rejected = self.frames_rejected
        clone.frames_accepted = self.frames_accepted
        return clone

    # -- public ---------------------------------------------------------------------

    def handle_payload(self, payload: bytes) -> bytes:
        """L2CAP data-handler entry point: one frame in, one frame out."""
        try:
            address, control, offset, length = decode_framing(payload)
        except PacketDecodeError:
            self.frames_rejected += 1
            return b""  # undecodable frames are dropped (no DLCI to answer on)
        dlci = (address >> 2) & 0x3F
        entry = self._dlcis.get(dlci)
        frame_type = control & 0xEF
        if frame_type == FrameType.SABM:
            return self._on_sabm(dlci, entry)
        if frame_type == FrameType.DISC:
            return self._on_disc(dlci, entry)
        if frame_type == FrameType.UIH:
            return self._on_uih(dlci, entry, payload, offset, length)
        # Unsolicited UA/DM from a peer: ignored.
        self.frames_rejected += 1
        return b""

    def dlci_state(self, dlci: int) -> DlciState:
        """Current state of *dlci* (DISCONNECTED when unknown)."""
        entry = self._dlcis.get(dlci)
        return entry.state if entry is not None else DlciState.DISCONNECTED

    # -- dispatch -------------------------------------------------------------------

    def _set_state(self, entry: DlciEntry, state: DlciState) -> None:
        entry.state = state
        self.state_history.append((entry.dlci, state))

    def _on_sabm(self, dlci: int, entry: DlciEntry | None) -> bytes:
        if entry is None:
            self.frames_rejected += 1
            return _DM[dlci]
        if dlci != CONTROL_DLCI and (
            self.dlci_state(CONTROL_DLCI) is not DlciState.CONNECTED
        ):
            # Data DLCIs require the control channel first.
            self.frames_rejected += 1
            return _DM[dlci]
        self.frames_accepted += 1
        self._set_state(entry, DlciState.CONNECTED)
        return _UA[dlci]

    def _on_disc(self, dlci: int, entry: DlciEntry | None) -> bytes:
        if entry is None or entry.state is not DlciState.CONNECTED:
            self.frames_rejected += 1
            return _DM[dlci]
        self.frames_accepted += 1
        self._set_state(entry, DlciState.DISCONNECTED)
        return _UA[dlci]

    def _on_uih(
        self,
        dlci: int,
        entry: DlciEntry | None,
        raw: bytes,
        offset: int,
        length: int,
    ) -> bytes:
        if entry is None or entry.state is not DlciState.CONNECTED:
            self.frames_rejected += 1
            return _DM[dlci]
        self.frames_accepted += 1
        self._check_bug(dlci, raw, length)
        if dlci == CONTROL_DLCI:
            return b""  # mux control messages are absorbed
        payload = raw[offset : offset + length]
        handler = self.service_handlers.get(dlci)
        if handler is not None:
            payload = handler(payload)
            if not payload:
                return b""
        # A service's response, or the serial-port loopback echo.
        return uih(dlci, payload).encode()

    def _check_bug(self, dlci: int, raw: bytes, length: int) -> None:
        """The injected UIH overflow: declared length shorter than the
        frame, with at least four bytes of uncovered tail."""
        if not self.vulnerable:
            return
        # Bytes beyond the declared frame (header + payload + FCS) are the
        # garbage tail; four or more overrun the reassembly buffer. The
        # header is 3 bytes, or 4 with a two-byte length (EA bit of the
        # first length byte clear).
        header = 3 if raw[2] & 0x01 else 4
        uncovered = len(raw) - (header + length + 1)
        if uncovered >= 4:
            crash = CrashReport(
                vulnerability_id="rfcomm-uih-overflow",
                kind=CrashKind.CRASH,
                dump_kind=DumpKind.TOMBSTONE,
                summary="heap overflow in RFCOMM UIH reassembly",
                function="rfc_process_mx_message",
                fault_address=0x41414141,
                trigger_description=f"UIH dlci={dlci} raw={raw.hex()}",
            )
            raise TargetCrashedError(crash)


#: The mux's static replies, pre-encoded per DLCI: UA (accept) and DM
#: (reject) carry nothing but the DLCI, so each has at most 64 forms.
_UA = tuple(ua(dlci).encode() for dlci in range(MAX_DLCI + 1))
_DM = tuple(dm(dlci).encode() for dlci in range(MAX_DLCI + 1))
