"""The corpus write-back stores exactly what the bytes-path reference would.

``shrink_finding`` replays findings over the direct hop, shrinks
them starting from the confirming replay's outcome, and takes the crash
ID from the last crashing ddmin attempt instead of a final replay. This
module keeps a reference implementation of the older write-back — every
packet through ``VirtualLink.send_frame`` as raw ACL bytes, a ddmin
that re-checks its input, a final replay for the crash ID — and feeds
every finding prefix of one armed fleet sweep to both.
"""

from __future__ import annotations

import pytest

import repro.core.triage as triage
import repro.corpus.findings as findings
from repro.analysis.traceio import packets_to_hex
from repro.core.config import FuzzConfig
from repro.core.fleet import FleetOrchestrator
from repro.core.triage import ReplayOutcome, profile_target_factory
from repro.corpus.findings import (
    FindingDatabase,
    record_from_campaign,
    trigger_hash,
)
from repro.errors import TransportError
from repro.hci.packets import AclPacket
from repro.testbed.profiles import ALL_PROFILES

TARGETS = ("l2cap", "rfcomm", "sdp", "obex")


def _bytes_replay(packets, factory, counter, handle=0x000B) -> ReplayOutcome:
    """Reference replay: every packet as a raw ACL frame."""
    counter.append(len(packets))
    device, link = factory()
    for index, packet in enumerate(packets):
        frame = AclPacket(handle=handle, payload=packet.encode()).encode()
        try:
            link.send_frame(frame)
            link.drain()
        except TransportError as error:
            crash = getattr(device, "crash", None)
            return ReplayOutcome(
                crashed=True,
                frames_replayed=index + 1,
                trigger_index=index,
                error_message=error.message,
                crash_id=crash.vulnerability_id if crash else None,
            )
    return ReplayOutcome(False, len(packets), None, None, None)


def _reference_minimize(packets, factory, counter, max_rounds=16):
    """Reference ddmin: checks its input, then shrinks."""
    current = list(packets)
    if not _bytes_replay(current, factory, counter).crashed:
        raise ValueError("the supplied packet sequence does not crash the target")
    chunk = max(1, len(current) // 2)
    rounds = 0
    while chunk >= 1 and rounds < max_rounds:
        rounds += 1
        reduced_this_pass = False
        index = 0
        while index < len(current):
            candidate = current[:index] + current[index + chunk :]
            if candidate and _bytes_replay(candidate, factory, counter).crashed:
                current = candidate
                reduced_this_pass = True
            else:
                index += chunk
        if not reduced_this_pass:
            if chunk == 1:
                break
            chunk = max(1, chunk // 2)
    return current


def _reference_record(finding, profile, packets, minimize, counter):
    """(hex packets, trigger hash, crash id) the reference would store."""
    factory = profile_target_factory(
        profile, armed=True, fuzz_target=finding.target
    )
    sequence = list(packets)
    if not _bytes_replay(sequence, factory, counter).crashed:
        return None
    if minimize:
        sequence = _reference_minimize(sequence, factory, counter)
    outcome = _bytes_replay(sequence, factory, counter)
    return (
        tuple(packets_to_hex(sequence)),
        trigger_hash(sequence),
        outcome.crash_id,
    )


@pytest.fixture(scope="module")
def finding_prefixes(tmp_path_factory):
    """(finding, profile, prefix) of every write-back in one armed sweep."""
    captured = []
    original = findings.shrink_finding

    def spy(finding, profile, packets, minimize=True):
        captured.append((finding, profile, list(packets)))
        return original(finding, profile, packets, minimize)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(findings, "shrink_finding", spy)
        orchestrator = FleetOrchestrator(
            profiles=ALL_PROFILES,
            strategies=("sequential", "targeted"),
            fleet_seed=1,
            workers=1,
            base_config=FuzzConfig(max_packets=200),
            armed=True,
            targets=TARGETS,
            corpus_dir=str(tmp_path_factory.mktemp("corpus")),
        )
        with orchestrator:
            orchestrator.run()
    return captured


def _stored(tmp_path, finding, profile, packets, minimize):
    """Record through the real write-back; returns (stored, replays)."""
    counter = []
    real_replay = triage.replay

    def counting(sequence, factory, handle=0x000B):
        counter.append(len(sequence))
        return real_replay(sequence, factory, handle)

    database = FindingDatabase(tmp_path)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(triage, "replay", counting)
        patch.setattr(findings, "replay", counting)
        status = record_from_campaign(
            database, finding, profile, packets, minimize=minimize
        )
    if status == "not-reproducible":
        return None, counter
    (record,) = database.records()
    return (record.packets, record.trigger_hash, record.crash_id), counter


def test_sweep_covers_several_protocols(finding_prefixes):
    targets = {finding.target for finding, _, _ in finding_prefixes}
    assert {"l2cap", "rfcomm"} <= targets


@pytest.mark.parametrize("minimize", [True, False], ids=["ddmin", "no-ddmin"])
def test_stored_findings_match_reference(finding_prefixes, tmp_path, minimize):
    for ordinal, (finding, profile, prefix) in enumerate(finding_prefixes):
        label = f"{finding.target}/{profile.device_id}#{ordinal}"
        reference_replays = []
        expected = _reference_record(
            finding, profile, prefix, minimize, reference_replays
        )
        actual, replays = _stored(
            tmp_path / str(ordinal), finding, profile, prefix, minimize
        )
        assert expected is not None, label
        assert actual == expected, label
        # What the new path no longer replays: ddmin's re-check of the
        # full prefix and the final replay of the minimal sequence.
        # Every other replay (the confirm, each ddmin attempt) is the
        # reference's own.
        dropped = ([len(prefix)] if minimize else []) + [len(expected[0])]
        assert len(replays) == len(reference_replays) - len(dropped), label
        assert sorted(replays + dropped) == sorted(reference_replays), label
