"""Spec-conformance validation of L2CAP packets.

Two consumers:

* the virtual host stacks use :func:`frame_violations` to decide which
  Command Reject to send (the reject semantics the paper's taxonomy is
  designed around), and
* the analysis sniffer uses :func:`is_malformed` to count *malformed*
  packets the way the paper's MP-Ratio does — a packet is malformed when
  any part of it deviates from a spec-clean encoding of its command.
"""

from __future__ import annotations

import dataclasses
import enum

from repro.l2cap.constants import (
    CONNECTIONLESS_CID,
    SIGNALING_CID,
    CommandCode,
    RejectReason,
    is_valid_psm,
)
from repro.l2cap.fields import is_normal_cidp
from repro.l2cap.packets import L2capPacket


class Violation(enum.Enum):
    """Categories of spec deviation detectable from a single packet."""

    UNKNOWN_CODE = "unknown command code"
    BAD_HEADER_CID = "header CID is neither a fixed channel nor allocated"
    LENGTH_MISMATCH = "declared length disagrees with content"
    TRUNCATED_FIELDS = "data region shorter than command layout"
    GARBAGE_TAIL = "bytes beyond declared data length"
    INVALID_PSM = "PSM outside the valid port grid"
    UNALLOCATED_CID = "channel-endpoint value ignores dynamic allocation"
    MTU_EXCEEDED = "frame exceeds signaling MTU"


#: Channel-endpoint fields that refer to the *receiver's* CID allocation.
#: Only these can "ignore dynamic allocation": a Connection Request's SCID
#: is the sender's own allocation and is judged by the sender's bookkeeping,
#: not the receiver's.
RECEIVER_CID_FIELDS: dict[int, tuple[str, ...]] = {
    CommandCode.CONFIGURATION_REQ: ("dcid",),
    CommandCode.CONFIGURATION_RSP: ("scid",),
    CommandCode.DISCONNECTION_REQ: ("dcid",),
    CommandCode.MOVE_CHANNEL_REQ: ("icid",),
    CommandCode.MOVE_CHANNEL_CONFIRMATION_REQ: ("icid",),
}


@dataclasses.dataclass(frozen=True)
class ValidationReport:
    """Outcome of validating one packet."""

    violations: tuple[Violation, ...]

    def has(self, violation: Violation) -> bool:
        """True when *violation* was observed."""
        return violation in self.violations


#: Fills a built packet's structural-facts cache (its ``__setattr__``
#: refuses assignments).
_set_intrinsic = L2capPacket._intrinsic.__set__

#: Shared empty report: the clean-packet fast path allocates nothing.
_CLEAN_REPORT = ValidationReport(())


def _structural_facts(packet: L2capPacket) -> tuple[tuple[Violation, ...], bool]:
    """Packet-intrinsic validation facts, memoized on the packet.

    Returns ``(structural_violations, invalid_psm)`` — everything about a
    signaling frame that does not depend on the receiver's MTU or CID
    allocation. The result is cached in the packet's codec-cache slot
    (packets never change), so the sniffer's malformedness call and the
    stack engine's rejection call share one structural pass per packet.
    """
    facts = packet._intrinsic
    if facts is None:
        structural: list[Violation] = []
        spec = packet.spec
        if spec is None:
            structural.append(Violation.UNKNOWN_CODE)
        if (
            packet.declared_payload_len is not None
            or packet.declared_data_len is not None
        ):
            structural.append(Violation.LENGTH_MISMATCH)
        if spec is not None:
            fields = packet.fields
            if any(field.name not in fields for field in spec.fields):
                structural.append(Violation.TRUNCATED_FIELDS)
        if packet.garbage:
            structural.append(Violation.GARBAGE_TAIL)
        psm = packet.fields.get("psm")
        invalid_psm = psm is not None and not is_valid_psm(psm)
        facts = (tuple(structural), invalid_psm)
        _set_intrinsic(packet, facts)
    return facts


def frame_violations(
    packet: L2capPacket,
    signaling_mtu: int,
    allocated_cids: frozenset[int] = frozenset(),
) -> ValidationReport:
    """Validate *packet* the way a conformant receiving stack would.

    :param packet: decoded packet.
    :param signaling_mtu: the receiver's signaling MTU; larger frames are
        rejected with "Signaling MTU exceeded".
    :param allocated_cids: CIDs the receiver has actually allocated.
        Channel-endpoint fields referencing other dynamic CIDs count as
        :attr:`Violation.UNALLOCATED_CID` ("Invalid CID in request").
    """
    if packet.header_cid != SIGNALING_CID:
        return _data_frame_violations(packet, allocated_cids)

    structural, invalid_psm = _structural_facts(packet)
    violations: list[Violation] = list(structural)

    if packet.wire_length > signaling_mtu:
        # Keep the report's violation order identical to the historical
        # single-pass implementation: MTU before PSM and CID findings.
        violations.append(Violation.MTU_EXCEEDED)
    if invalid_psm:
        violations.append(Violation.INVALID_PSM)

    for name in RECEIVER_CID_FIELDS.get(packet.code, ()):
        value = packet.fields.get(name)
        if value is None:
            continue
        if is_normal_cidp(value) and value not in allocated_cids:
            violations.append(Violation.UNALLOCATED_CID)
            break

    if not violations:
        return _CLEAN_REPORT
    return ValidationReport(tuple(violations))


def _data_frame_violations(
    packet: L2capPacket, allocated_cids: frozenset[int]
) -> ValidationReport:
    """Judge a non-signaling frame: data to a live or fixed channel is
    clean; data aimed at an unallocated dynamic CID is malformed."""
    violations: list[Violation] = []
    fixed_channels = {SIGNALING_CID, CONNECTIONLESS_CID}
    if packet.header_cid not in fixed_channels and packet.header_cid not in allocated_cids:
        violations.append(Violation.BAD_HEADER_CID)
    return ValidationReport(tuple(violations))


def structural_reject_reason(
    packet: L2capPacket, signaling_mtu: int
) -> RejectReason | None:
    """Rejection decidable before command dispatch, straight from the facts.

    Equivalent to running :func:`frame_violations` and mapping the
    ``F``/``D`` violations the way the stack engine does — MTU first,
    then unknown code, then length/truncation — but served from the
    memoized structural pass without building a report. One call per
    accepted signaling frame on the stack engine's hot path.
    """
    wire = packet._wire
    if (packet.wire_length if wire is None else len(wire)) > signaling_mtu:
        return _MTU_EXCEEDED
    facts = packet._intrinsic
    if facts is None:
        facts = _structural_facts(packet)
    structural = facts[0]
    if structural and (
        _UNKNOWN_CODE in structural
        or _LENGTH_MISMATCH in structural
        or _TRUNCATED_FIELDS in structural
    ):
        return _NOT_UNDERSTOOD
    return None


# The members structural_reject_reason reads per frame, bound once
# (a module global costs a tenth of an enum member read).
_MTU_EXCEEDED = RejectReason.SIGNALING_MTU_EXCEEDED
_NOT_UNDERSTOOD = RejectReason.COMMAND_NOT_UNDERSTOOD
_UNKNOWN_CODE = Violation.UNKNOWN_CODE
_LENGTH_MISMATCH = Violation.LENGTH_MISMATCH
_TRUNCATED_FIELDS = Violation.TRUNCATED_FIELDS


def is_malformed(packet: L2capPacket, allocated_cids: frozenset[int] = frozenset()) -> bool:
    """Classify a transmitted packet as malformed (MP-Ratio numerator).

    A packet is malformed when it deviates from the spec-clean encoding a
    cooperating peer would produce: structural violations, garbage tails,
    invalid PSMs, or channel endpoints that ignore the peer's allocation.
    This is the packet-trace-level judgement a Wireshark analyst makes in
    the paper's §IV.C measurement.

    Equivalent to ``bool(frame_violations(packet, 1 << 30,
    allocated_cids).violations)`` but skips building the report — this runs
    once per transmitted packet, and a boolean needs no violation list.
    """
    if packet.header_cid != SIGNALING_CID:
        return (
            packet.header_cid not in (SIGNALING_CID, CONNECTIONLESS_CID)
            and packet.header_cid not in allocated_cids
        )
    # Inline the memo hit (one attribute read) — this and the engine's
    # structural_reject_reason both run once per transmitted packet.
    facts = packet._intrinsic
    if facts is None:
        facts = _structural_facts(packet)
    structural, invalid_psm = facts
    if structural or invalid_psm:
        return True
    for name in RECEIVER_CID_FIELDS.get(packet.code, ()):
        value = packet.fields.get(name)
        if value is None:
            continue
        if is_normal_cidp(value) and value not in allocated_cids:
            return True
    return False
