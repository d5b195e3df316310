"""Replay stored corpus artefacts against fresh targets.

Two workloads:

* **coverage replay** — re-send a corpus entry's packets through a full
  :class:`~repro.core.packet_queue.PacketQueue` (sniffer attached) and
  re-derive the wire-inferred state coverage, verifying that the stored
  sequence still drives a fresh target somewhere interesting;
* **regression replay** — re-fire a finding bucket's minimised
  reproducer via :func:`repro.core.triage.replay` and check that the
  crash still reproduces with the same error and crash ID. A bucket
  that stops reproducing (or reproduces differently) is a regression
  signal, not a silent pass.

Everything is deterministic: virtual targets are rebuilt from their
profiles with zero latency, so two replays of the same artefact give
identical outcomes.
"""

from __future__ import annotations

import dataclasses

from repro.analysis.state_coverage import state_coverage
from repro.core.packet_queue import PacketQueue
from repro.core.triage import ReplayOutcome, profile_target_factory, replay
from repro.corpus.entry import CorpusEntry
from repro.corpus.findings import FindingRecord
from repro.errors import TransportError
from repro.hci.transport import VirtualLink


@dataclasses.dataclass(frozen=True)
class EntryReplayOutcome:
    """Result of re-sending one corpus entry."""

    entry_id: str
    packets_replayed: int
    crashed: bool
    error_message: str | None
    covered_states: tuple[str, ...]


@dataclasses.dataclass(frozen=True)
class FindingReplayOutcome:
    """Result of re-firing one finding bucket's reproducer."""

    bucket_id: str
    outcome: ReplayOutcome
    reproduced: bool
    error_matches: bool
    crash_id_matches: bool

    @property
    def regression(self) -> bool:
        """The stored crash no longer reproduces the stored way."""
        return not (self.reproduced and self.error_matches and self.crash_id_matches)


def replay_entry(entry: CorpusEntry, profiles_by_id: dict) -> EntryReplayOutcome:
    """Re-send *entry* against a fresh target and re-derive coverage.

    :raises KeyError: when the entry's profile is unknown.
    """
    profile = profiles_by_id[entry.device_id]
    device = profile.build(armed=entry.armed, zero_latency=True)
    if entry.target != "l2cap":
        from repro.targets import make_target

        make_target(entry.target).prepare_device(device, armed=entry.armed)
    link = VirtualLink(clock=device.clock)
    device.attach_to(link)
    queue = PacketQueue(link)
    crashed = False
    error_message = None
    replayed = 0
    for packet in entry.decode_packets():
        try:
            queue.send(packet)
        except TransportError as error:
            crashed = True
            error_message = error.message
            replayed += 1
            break
        replayed += 1
    covered = state_coverage(queue.sniffer)
    return EntryReplayOutcome(
        entry_id=entry.entry_id,
        packets_replayed=replayed,
        crashed=crashed,
        error_message=error_message,
        covered_states=tuple(sorted(state.value for state in covered)),
    )


def replay_finding(
    record: FindingRecord, profiles_by_id: dict
) -> FindingReplayOutcome:
    """Re-fire *record*'s reproducer; flag any behavioural drift.

    :raises KeyError: when the record's profile is unknown.
    """
    profile = profiles_by_id[record.device_id]
    factory = profile_target_factory(
        profile, armed=True, fuzz_target=record.target
    )
    outcome = replay(record.decode_packets(), factory)
    return FindingReplayOutcome(
        bucket_id=record.bucket_id,
        outcome=outcome,
        reproduced=outcome.crashed,
        error_matches=outcome.error_message == record.error_message,
        crash_id_matches=outcome.crash_id == record.crash_id,
    )
