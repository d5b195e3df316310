"""Channel control blocks and CID allocation for a virtual host stack.

Mirrors the ``t_l2c_ccb`` structures of real stacks (the very structure
the Pixel 3 null-pointer dereference of paper Fig. 12 lives in). Each
connection-oriented channel owns a control block holding its CIDs, PSM
and configuration progress; the manager allocates local CIDs from the
dynamic range 0x0040 upward, exactly the dynamic allocation the paper's
CIDP mutation deliberately ignores.
"""

from __future__ import annotations

import dataclasses

from repro.errors import ChannelError
from repro.l2cap.constants import DYNAMIC_CID_MAX, DYNAMIC_CID_MIN
from repro.l2cap.states import ChannelState


@dataclasses.dataclass
class ChannelControlBlock:
    """Per-channel state (a ``t_l2c_ccb`` analogue).

    :param local_cid: CID this device allocated for the channel.
    :param remote_cid: peer's CID (0 until learned from the peer).
    :param psm: service port the channel was opened against.
    :param state: current position in the 19-state machine.
    :param local_config_done: our Configuration Request was answered.
    :param remote_config_done: the peer's Configuration Request was
        answered by us.
    :param local_config_sent: we have sent our Configuration Request.
    :param initiates_config: channel starts configuration spontaneously.
    """

    local_cid: int
    remote_cid: int = 0
    psm: int = 0
    state: ChannelState = ChannelState.CLOSED
    local_config_done: bool = False
    remote_config_done: bool = False
    local_config_sent: bool = False
    initiates_config: bool = False

    @property
    def is_open(self) -> bool:
        """True once both configuration directions completed."""
        return self.state is ChannelState.OPEN

    def copy(self) -> ChannelControlBlock:
        """An independent copy of this block."""
        clone = ChannelControlBlock.__new__(ChannelControlBlock)
        clone.__dict__.update(self.__dict__)
        return clone

    def reset_config(self) -> None:
        """Forget configuration progress (re-configuration from OPEN)."""
        self.local_config_done = False
        self.remote_config_done = False
        self.local_config_sent = False


class ChannelManager:
    """Allocates CIDs and tracks the live channels of one device.

    :param max_channels: channel-capacity limit. Real applications "form
        as many channels as the number of supported Bluetooth services"
        (paper §IV.C) — connection requests beyond the limit are refused
        with "no resources", one of the rejection sources the paper
        attributes to L2Fuzz's own traffic.
    """

    def __init__(self, max_channels: int = 8) -> None:
        if max_channels < 1:
            raise ChannelError("a stack needs at least one channel slot")
        self.max_channels = max_channels
        self._channels: dict[int, ChannelControlBlock] = {}
        self._next_cid = DYNAMIC_CID_MIN
        #: Monotonic generation counter: bumped on any membership change
        #: (and by the engine on state transitions), so per-packet
        #: derived views — the engine's ambient-state guess — can be
        #: cached until something actually changed.
        self.version = 0

    def fork(self) -> ChannelManager:
        """An independent copy: every block is copied, and the CID
        cursor and version carry over."""
        clone = ChannelManager.__new__(ChannelManager)
        clone.max_channels = self.max_channels
        clone._channels = {
            cid: block.copy() for cid, block in self._channels.items()
        }
        clone._next_cid = self._next_cid
        clone.version = self.version
        return clone

    def allocate(self, psm: int, remote_cid: int, initiates_config: bool = False) -> ChannelControlBlock:
        """Create a control block with a freshly allocated local CID.

        :raises ChannelError: when the capacity limit is reached or the
            dynamic CID space is exhausted.
        """
        if len(self._channels) >= self.max_channels:
            raise ChannelError("channel capacity exhausted")
        cid = self._next_free_cid()
        block = ChannelControlBlock(
            local_cid=cid,
            remote_cid=remote_cid,
            psm=psm,
            initiates_config=initiates_config,
        )
        self._channels[cid] = block
        self.version += 1
        return block

    def _next_free_cid(self) -> int:
        cid = self._next_cid
        wrapped = False
        while cid in self._channels:
            cid += 1
            if cid > DYNAMIC_CID_MAX:
                if wrapped:
                    raise ChannelError("dynamic CID space exhausted")
                cid = DYNAMIC_CID_MIN
                wrapped = True
        self._next_cid = cid + 1
        if self._next_cid > DYNAMIC_CID_MAX:
            self._next_cid = DYNAMIC_CID_MIN
        return cid

    def release(self, local_cid: int) -> None:
        """Tear down the channel at *local_cid* (no-op if absent)."""
        if self._channels.pop(local_cid, None) is not None:
            self.version += 1

    def get(self, local_cid: int) -> ChannelControlBlock | None:
        """Look up a channel by our local CID."""
        return self._channels.get(local_cid)

    def by_remote_cid(self, remote_cid: int) -> ChannelControlBlock | None:
        """Look up a channel by the peer's CID."""
        for block in self._channels.values():
            if block.remote_cid == remote_cid and remote_cid != 0:
                return block
        return None

    def allocated_cids(self) -> frozenset[int]:
        """The set of local CIDs currently allocated."""
        return frozenset(self._channels)

    def live_channels(self) -> tuple[ChannelControlBlock, ...]:
        """All current control blocks."""
        return tuple(self._channels.values())

    def blocks(self):
        """Live view of the control blocks (insertion order, no copy)."""
        return self._channels.values()

    def clear(self) -> None:
        """Release every channel (stack restart)."""
        self._channels.clear()
        self._next_cid = DYNAMIC_CID_MIN
        self.version += 1

    def __len__(self) -> int:
        return len(self._channels)
