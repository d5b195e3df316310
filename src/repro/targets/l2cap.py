"""The L2CAP fuzz target — the paper's method as the reference plugin.

This is a thin adapter: it owns no new behaviour, it repackages the
seed's phase-2/phase-3 machinery (:class:`~repro.core.state_guiding.StateGuide`,
:class:`~repro.core.mutation.CoreFieldMutator`, the Table III valid-command
map) behind the :class:`~repro.targets.base.FuzzTarget` interface. A
campaign run through this target is byte-identical to the pre-redesign
engine: same RNG stream, same identifiers, same packets, same metrics.
"""

from __future__ import annotations

import random
from collections.abc import Iterable

from repro.core.config import FuzzConfig
from repro.core.mutation import CoreFieldMutator
from repro.core.state_guiding import STATE_PLAN, StateGuide
from repro.l2cap.constants import MIN_SIGNALING_MTU
from repro.l2cap.jobs import JOB_VALID_COMMANDS
from repro.l2cap.packets import L2capPacket
from repro.l2cap.states import ALL_STATES, ChannelState
from repro.l2cap.validation import structural_reject_reason
from repro.targets.base import (
    FuzzTarget,
    GuidedPosition,
    register_target,
)


class _L2capGuide:
    """Wraps :class:`StateGuide` into the generic guide protocol."""

    def __init__(self, queue, scan) -> None:
        self._guide = StateGuide(queue, scan)

    def plan(self) -> tuple[ChannelState, ...]:
        return self._guide.plan()

    def enter(self, state: ChannelState) -> GuidedPosition:
        guided = self._guide.enter(state)
        return GuidedPosition(state=state, label=guided.job.value, context=guided)

    def leave(self, position: GuidedPosition) -> None:
        self._guide.leave(position.context)


#: The target's mutator is Algorithm 1 itself: :class:`CoreFieldMutator`
#: speaks the generic mutator protocol, so no adapter hop sits in between.
_L2capMutator = CoreFieldMutator

#: Each job's valid commands in code order, sorted once (Table III).
_JOB_COMMANDS = {
    job: tuple(sorted(commands)) for job, commands in JOB_VALID_COMMANDS.items()
}


@register_target
class L2capTarget(FuzzTarget):
    """Stateful L2CAP fuzzing (paper §III), as a pluggable target."""

    name = "l2cap"

    def state_universe(self) -> tuple[ChannelState, ...]:
        return ALL_STATES

    def state_plan(self) -> tuple[ChannelState, ...]:
        return STATE_PLAN

    def fallback_state(self) -> ChannelState:
        # Ablation: stateless fuzzing from the CLOSED posture only.
        return ChannelState.CLOSED

    def build_guide(self, queue, scan) -> _L2capGuide:
        return _L2capGuide(queue, scan)

    def build_mutator(
        self,
        config: FuzzConfig,
        rng: random.Random,
        dictionary: Iterable[bytes] = (),
    ) -> _L2capMutator:
        return _L2capMutator(config, rng, dictionary=dictionary)

    def commands_for(self, position: GuidedPosition) -> tuple:
        return _JOB_COMMANDS[position.context.job]

    # -- codec hooks ----------------------------------------------------------------

    def encode_payload(self, packet: L2capPacket) -> bytes:
        return packet.encode()

    def decode_payload(self, raw: bytes) -> L2capPacket:
        return L2capPacket.decode(raw)

    def is_structurally_valid(self, payload: bytes) -> bool:
        """A conformant signaling parser accepts these bytes."""
        try:
            packet = L2capPacket.decode(payload)
        except Exception:
            return False
        if packet.is_data_frame:
            return True
        return structural_reject_reason(packet, MIN_SIGNALING_MTU) is None

    # -- analysis -------------------------------------------------------------------

    def covered_states(self, fuzzer) -> frozenset[ChannelState]:
        """Wire-inferred PRETT-style coverage (the paper's §IV.D metric)."""
        from repro.analysis.state_coverage import state_coverage

        return state_coverage(fuzzer.sniffer)
