"""Injectable vulnerability models for the virtual host stacks.

The paper found five zero-days in deployed stacks. We reproduce each as a
*bug model*: a predicate over the packet a stack has just **accepted for
parsing** (rejected packets never reach buggy code — the entire premise
of core-field mutating) plus the channel state it arrived in. When the
predicate matches, the stack raises
:class:`~repro.errors.TargetCrashedError` carrying a
:class:`~repro.stack.crash.CrashReport`.

The five models mirror paper Table VI and §IV.E:

* ``bluedroid-cidp-null-deref`` — D1/D2: a Configuration Request whose
  DCID ignores dynamic allocation, with a garbage tail, dereferences a
  NULL ``t_l2c_ccb`` in ``l2c_csm_execute`` → Bluetooth DoS.
* ``bluedroid-create-channel-dos`` — D3: a malformed Create Channel
  Request in the creation job (Wait-Create state) → DoS. The paper notes
  only L2Fuzz covers this state and command.
* ``rtkit-psm-shutdown`` — D5: a connection attempt with an abnormal
  odd-high-byte PSM kills the earbud firmware outright (silent death →
  the fuzzer sees a timeout).
* ``bluez-gpf`` — D8: a rare general protection fault on a Disconnection
  Request carrying an unallocated DCID with a garbage tail and an
  unlucky address alignment; deliberately narrow so discovery takes
  orders of magnitude longer than the others (2h40m in the paper).

Each paper bug fires on one or two specific commands, and each model
says which in :attr:`VulnerabilityModel.codes`. The stack engine indexes
its models by command code and evaluates only those that can fire on
the accepted packet's code: a liveness ping or any other command no
model names costs no trigger context at all. A model that leaves
``codes`` at None is evaluated on every accepted packet.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable

from repro.l2cap.constants import CommandCode, is_valid_psm
from repro.l2cap.jobs import Job
from repro.l2cap.states import ChannelState
from repro.stack.crash import CrashKind, CrashReport, DumpKind


@dataclasses.dataclass(frozen=True)
class TriggerContext:
    """What a bug predicate can inspect at the moment of parsing.

    :param packet: the accepted (parsed) L2CAP packet.
    :param state: state of the channel the packet addressed, if any.
    :param job: job of that state (paper Table I), if any.
    :param allocated_cids: the stack's currently allocated local CIDs.
    :param live_states: states of every currently live channel — lets a
        predicate require, e.g., "a half-configured channel exists".
    """

    packet: object
    state: ChannelState | None
    job: Job | None
    allocated_cids: frozenset[int]
    live_states: frozenset[ChannelState] = frozenset()

    def field(self, name: str) -> int | None:
        """Field value from the packet (None when absent)."""
        return self.packet.fields.get(name)

    @property
    def has_garbage(self) -> bool:
        """True when the packet carries a garbage tail."""
        return bool(self.packet.garbage)

    def cid_unallocated(self, name: str) -> bool:
        """True when field *name* holds a dynamic CID we never allocated."""
        value = self.field(name)
        if value is None:
            return False
        return 0x0040 <= value <= 0xFFFF and value not in self.allocated_cids


@dataclasses.dataclass(frozen=True)
class VulnerabilityModel:
    """One injectable bug.

    :param vulnerability_id: stable identifier.
    :param description: paper-style one-liner for reports.
    :param predicate: trigger condition over a :class:`TriggerContext`.
    :param kind: DoS or crash.
    :param dump_kind: artefact style on trigger.
    :param function: stack function blamed in the dump.
    :param fault_address: faulting address recorded in the dump.
    :param silent: device dies without signalling (timeout observed).
    :param codes: the command codes the predicate can match. The engine
        evaluates the model only on packets with one of these codes, so
        the predicate must be False on every other code. None (the
        default) means every code: the model sees every accepted packet.
    """

    vulnerability_id: str
    description: str
    predicate: Callable[[TriggerContext], bool]
    kind: CrashKind
    dump_kind: DumpKind
    function: str
    fault_address: int = 0x20
    silent: bool = False
    codes: frozenset[int] | None = None

    def check(self, context: TriggerContext) -> bool:
        """Evaluate the trigger predicate."""
        return self.predicate(context)

    def fire(self, context: TriggerContext, sim_time: float) -> CrashReport:
        """Build the crash report for a matched trigger."""
        return CrashReport(
            vulnerability_id=self.vulnerability_id,
            kind=self.kind,
            dump_kind=self.dump_kind,
            summary=self.description,
            function=self.function,
            fault_address=self.fault_address,
            trigger_description=context.packet.describe(),
            sim_time=sim_time,
            silent=self.silent,
        )


# ---------------------------------------------------------------------------
# The five paper bugs
# ---------------------------------------------------------------------------


def _cidp_null_deref(context: TriggerContext) -> bool:
    """D1/D2 trigger (§IV.E): config-job CONFIG_REQ, bogus DCID, garbage.

    The BlueDroid channel-state-machine looks up the ``t_l2c_ccb`` for
    the DCID without a NULL check before touching the garbage-extended
    option region; an unallocated-but-legal DCID yields a NULL block.
    """
    if context.packet.code != CommandCode.CONFIGURATION_REQ:
        return False
    if context.job is not Job.CONFIGURATION and context.state is not ChannelState.OPEN:
        return False
    return context.cid_unallocated("dcid") and context.has_garbage


def _create_channel_dos(context: TriggerContext) -> bool:
    """D3 trigger: malformed Create Channel Request in the creation flow.

    Fires only while an AMP channel creation is actually in progress —
    a live, still-unconfigured channel (WAIT_CONFIG) must exist, which is
    the Wait-Create fuzzing situation the paper describes ("detected in
    the Wait-Create state, which only L2Fuzz covers"). On top of that the
    packet needs a garbage tail, a controller ID no AMP controller backs,
    and a source CID whose low bits collide with the creation bookkeeping
    hash (a narrow window: this bug took the paper ~7 minutes, not
    seconds).
    """
    if context.packet.code != CommandCode.CREATE_CHANNEL_REQ:
        return False
    if ChannelState.WAIT_CONFIG not in context.live_states:
        return False
    if not context.has_garbage:
        return False
    cont_id = context.field("cont_id") or 0
    scid = context.field("scid") or 0
    return cont_id not in (0, 1) and scid % 4 == 0


def _psm_shutdown(context: TriggerContext) -> bool:
    """D5 trigger: abnormal odd-high-byte PSM in a connection attempt."""
    if context.packet.code not in (
        CommandCode.CONNECTION_REQ,
        CommandCode.CREATE_CHANNEL_REQ,
    ):
        return False
    psm = context.field("psm")
    if psm is None or is_valid_psm(psm):
        return False
    return (psm >> 8) & 0x01 == 1  # the odd-MSB ranges of Table IV


#: Width of the D8 alignment window; 22/65536 ≈ 1/3000 of random DCIDs.
_GPF_WINDOW = 22


def _bluez_gpf(context: TriggerContext) -> bool:
    """D8 trigger: rare GPF on a garbage-tailed Disconnection Request.

    Both CIDs must dodge the allocation table and the DCID must land in
    a narrow hash window — a deliberately tiny target modelling why the
    paper needed 2h40m on BlueZ versus minutes elsewhere.
    """
    if context.packet.code != CommandCode.DISCONNECTION_REQ:
        return False
    if not context.has_garbage:
        return False
    if not (context.cid_unallocated("dcid") and context.cid_unallocated("scid")):
        return False
    dcid = context.field("dcid") or 0
    return (dcid * 0x9E37) % 0xFFFF < _GPF_WINDOW


BLUEDROID_CIDP_NULL_DEREF = VulnerabilityModel(
    vulnerability_id="bluedroid-cidp-null-deref",
    description="null pointer dereference",
    predicate=_cidp_null_deref,
    kind=CrashKind.DOS,
    dump_kind=DumpKind.TOMBSTONE,
    function="l2c_csm_execute(t_l2c_ccb*, unsigned short, void*)",
    fault_address=0x20,
    codes=frozenset({CommandCode.CONFIGURATION_REQ}),
)

BLUEDROID_CREATE_CHANNEL_DOS = VulnerabilityModel(
    vulnerability_id="bluedroid-create-channel-dos",
    description="null pointer dereference in AMP channel creation",
    predicate=_create_channel_dos,
    kind=CrashKind.DOS,
    dump_kind=DumpKind.TOMBSTONE,
    function="l2c_csm_execute(t_l2c_ccb*, unsigned short, void*)",
    fault_address=0x18,
    codes=frozenset({CommandCode.CREATE_CHANNEL_REQ}),
)

RTKIT_PSM_SHUTDOWN = VulnerabilityModel(
    vulnerability_id="rtkit-psm-shutdown",
    description="unexpected termination on abnormal PSM",
    predicate=_psm_shutdown,
    kind=CrashKind.CRASH,
    dump_kind=DumpKind.NONE,
    function="rtkit_l2cap_connect_ind",
    silent=True,
    codes=frozenset({CommandCode.CONNECTION_REQ, CommandCode.CREATE_CHANNEL_REQ}),
)

BLUEZ_GPF = VulnerabilityModel(
    vulnerability_id="bluez-gpf",
    description="general protection fault",
    predicate=_bluez_gpf,
    kind=CrashKind.CRASH,
    dump_kind=DumpKind.KERNEL_OOPS,
    function="l2cap_disconnect_req",
    fault_address=0x9E37,
    codes=frozenset({CommandCode.DISCONNECTION_REQ}),
)


#: Registry of every modelled bug, keyed by identifier.
KNOWN_VULNERABILITIES: dict[str, VulnerabilityModel] = {
    model.vulnerability_id: model
    for model in (
        BLUEDROID_CIDP_NULL_DEREF,
        BLUEDROID_CREATE_CHANNEL_DOS,
        RTKIT_PSM_SHUTDOWN,
        BLUEZ_GPF,
    )
}
