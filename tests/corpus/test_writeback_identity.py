"""The corpus write-back stores exactly what the bytes-path reference would.

``shrink_finding`` replays findings over the direct hop, shrinks
them starting from the confirming replay's outcome, and takes the crash
ID from the last crashing ddmin attempt instead of a final replay. Its
ddmin is incremental: one base target per pass takes the shared prefix,
each candidate forks it, and repeat candidates come from a memo. This
module keeps a reference implementation of the older write-back — every
packet through ``VirtualLink.send_frame`` as raw ACL bytes, a ddmin
that re-checks its input and replays every candidate from scratch, a
final replay for the crash ID — and feeds every finding prefix of two
armed fleet sweeps to both. Besides the stored bytes, it pins the work:
how many forks the new path makes and how many packets it sends.
"""

from __future__ import annotations

import collections
import dataclasses

import pytest

import repro.core.triage as triage
import repro.corpus.findings as findings
from repro.analysis.traceio import packets_to_hex
from repro.core.config import FuzzConfig
from repro.core.fleet import FleetOrchestrator
from repro.core.triage import ReplayOutcome, profile_target_factory
from repro.corpus.backend import open_backend
from repro.corpus.findings import trigger_hash
from repro.errors import TransportError
from repro.hci.packets import AclPacket
from repro.hci.transport import VirtualLink
from repro.stack.device import VirtualDevice
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
            link.inbound.clear()
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


def _reference_minimize(packets, factory, counter, attempts, max_rounds=16):
    """Reference ddmin: checks its input, then shrinks, every candidate
    replayed from scratch.

    Each ddmin attempt is logged in *attempts* as ``(kind, frames)``:
    ``"repeat"`` for a candidate tried before in this shrink (the new
    path's memo answers it), ``"prefix"`` for one the shared prefix
    answers alone — it crashes before the removed chunk, or nothing
    follows the chunk — and ``"fork"`` for the rest. *frames* is what
    the replay sent.
    """
    current = list(packets)
    if not _bytes_replay(current, factory, counter).crashed:
        raise ValueError("the supplied packet sequence does not crash the target")
    seen = set()
    chunk = max(1, len(current) // 2)
    rounds = 0
    while chunk >= 1 and rounds < max_rounds:
        rounds += 1
        reduced_this_pass = False
        index = 0
        while index < len(current):
            candidate = current[:index] + current[index + chunk :]
            crashed = False
            if candidate:
                attempt = _bytes_replay(candidate, factory, counter)
                crashed = attempt.crashed
                key = tuple(map(id, candidate))
                if key in seen:
                    kind = "repeat"
                elif (crashed and attempt.trigger_index < index) or (
                    index + chunk >= len(current)
                ):
                    kind = "prefix"
                else:
                    kind = "fork"
                seen.add(key)
                attempts.append((kind, attempt.frames_replayed))
            if crashed:
                current = candidate
                reduced_this_pass = True
            else:
                index += chunk
        if not reduced_this_pass:
            if chunk == 1:
                break
            chunk = max(1, chunk // 2)
    return current


def _reference_record(finding, profile, packets, minimize, counter, attempts):
    """(hex packets, trigger hash, crash id) the reference would store,
    and the frames its confirming replay sent."""
    factory = profile_target_factory(
        profile, armed=True, fuzz_target=finding.target
    )
    sequence = list(packets)
    confirm = _bytes_replay(sequence, factory, counter)
    if not confirm.crashed:
        return None, confirm.frames_replayed
    if minimize:
        sequence = _reference_minimize(sequence, factory, counter, attempts)
    outcome = _bytes_replay(sequence, factory, counter)
    stored = (
        tuple(packets_to_hex(sequence)),
        trigger_hash(sequence),
        outcome.crash_id,
    )
    return stored, confirm.frames_replayed


@pytest.fixture(scope="module", params=[1, 2], ids=["fleet-seed-1", "fleet-seed-2"])
def finding_prefixes(request, tmp_path_factory):
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
            fleet_seed=request.param,
            workers=1,
            base_config=FuzzConfig(max_packets=200),
            armed=True,
            targets=TARGETS,
            corpus_dir=str(tmp_path_factory.mktemp("corpus")),
        )
        with orchestrator:
            orchestrator.run()
    return captured


@dataclasses.dataclass
class _Work:
    """What the real write-back of one finding did."""

    replays: list = dataclasses.field(default_factory=list)  # lengths
    forks: int = 0
    frames: int = 0  # packets delivered to any target


def _stored(tmp_path, finding, profile, packets, minimize):
    """Record through the real write-back; returns (stored, work)."""
    work = _Work()
    real_replay = triage.replay
    real_fork = VirtualDevice.fork
    real_deliver = VirtualLink.deliver
    real_send_frame = VirtualLink.send_frame

    def counting_replay(sequence, factory, handle=0x000B):
        work.replays.append(len(sequence))
        return real_replay(sequence, factory, handle)

    def counting_fork(device, link):
        work.forks += 1
        return real_fork(device, link)

    def counting_deliver(link, packet, handle):
        work.frames += 1
        return real_deliver(link, packet, handle)

    def counting_send_frame(link, frame):
        work.frames += 1
        return real_send_frame(link, frame)

    database = open_backend(tmp_path)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(triage, "replay", counting_replay)
        patch.setattr(findings, "replay", counting_replay)
        patch.setattr(VirtualDevice, "fork", counting_fork)
        patch.setattr(VirtualLink, "deliver", counting_deliver)
        patch.setattr(VirtualLink, "send_frame", counting_send_frame)
        record = findings.shrink_finding(
            finding, profile, packets, minimize=minimize
        )
    if record is None:
        return None, work
    database.ingest([((), [record])])
    (record,) = database.finding_records()
    return (record.packets, record.trigger_hash, record.crash_id), work


def test_sweep_covers_several_protocols(finding_prefixes):
    targets = {finding.target for finding, _, _ in finding_prefixes}
    assert {"l2cap", "rfcomm"} <= targets


@pytest.mark.parametrize("minimize", [True, False], ids=["ddmin", "no-ddmin"])
def test_stored_findings_match_reference(finding_prefixes, tmp_path, minimize):
    reference_frames = frames = 0
    for ordinal, (finding, profile, prefix) in enumerate(finding_prefixes):
        label = f"{finding.target}/{profile.device_id}#{ordinal}"
        reference_replays, attempts = [], []
        expected, confirm_frames = _reference_record(
            finding, profile, prefix, minimize, reference_replays, attempts
        )
        actual, work = _stored(
            tmp_path / str(ordinal), finding, profile, prefix, minimize
        )
        assert expected is not None, label
        assert actual == expected, label
        # The confirming replay is the only fresh replay left.
        assert work.replays == [len(prefix)], label
        # The reference replays the confirm, ddmin's re-check of the
        # full prefix, every ddmin attempt and the minimal sequence.
        # Each attempt is answered by exactly one of: a fork, the memo
        # (a repeat) or the shared prefix alone, so the forks are
        # exactly the reference's attempts minus those two kinds.
        dropped = [len(prefix)] if minimize else []
        assert len(attempts) == len(reference_replays) - len(dropped) - 2, label
        kinds = collections.Counter(kind for kind, _ in attempts)
        assert work.forks == len(attempts) - kinds["repeat"] - kinds["prefix"], label
        # Packets delivered beyond the confirming replay: every ddmin
        # attempt from scratch against the incremental path's sends.
        reference_frames += sum(sent for _, sent in attempts)
        frames += work.frames - confirm_frames
    if minimize:
        assert frames <= 0.7 * reference_frames, (frames, reference_frames)
    else:
        assert frames == reference_frames == 0
