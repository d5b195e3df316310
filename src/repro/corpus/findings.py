"""Finding records: the crash buckets that survive runs.

Findings are bucketed by :func:`repro.core.detection.finding_key` over
``(vendor, vulnerability class, minimised-trigger hash)`` — the same key
the fleet merge deduplicates with, except that here the trigger is the
content hash of the *minimised* reproducer rather than a human-readable
rendering, so cosmetic differences between campaigns (identifiers,
garbage-tail noise that minimisation strips) collapse into one bucket.

Each bucket is one indexed row of the corpus database, written and read
through :class:`~repro.corpus.sqlite_backend.SqliteCorpusBackend`
(:meth:`~repro.corpus.sqlite_backend.SqliteCorpusBackend.record_finding`,
``finding_records``, ``query_findings``). Recording an already-known bucket
adds to its occurrence count — that is the cross-run duplicate
detection, and the count is **exact** under concurrent workers (a
transactional ``UPDATE``). The bucket keeps the lowest-ranked record by
``(sim_time, device_id, packets)``, so the stored reproducer does not
depend on which worker wrote first.
:func:`repro.corpus.replay.replay_finding` re-fires stored reproducers
against a fresh target, which is the regression half: a bucket that no
longer reproduces (or reproduces differently) is flagged instead of
silently trusted.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections.abc import Sequence

from repro.analysis.traceio import packets_from_hex, packets_to_hex
from repro.core.detection import Finding, finding_key
from repro.core.triage import profile_target_factory, replay, shrink_trigger
from repro.l2cap.packets import L2capPacket


def trigger_hash(packets: Sequence[L2capPacket]) -> str:
    """Bucketing hash of a minimised reproducer.

    Hashes the reproducer's *shape* — the command sequence — rather
    than its raw bytes: two campaigns that hit the same bug with
    different seeds minimise to the same command skeleton but different
    identifiers, CIDs and garbage, and must land in the same bucket.
    This is the crash-bucketing analogue of stack-hash dedup; distinct
    vulnerabilities on one stack minimise to distinct command shapes.
    """
    shape = ",".join(
        f"DATA_0x{packet.header_cid:04X}" if packet.is_data_frame
        else packet.command_name
        for packet in packets
    )
    return hashlib.sha256(shape.encode("utf-8")).hexdigest()


@dataclasses.dataclass(frozen=True)
class FindingRecord:
    """One persistent crash bucket.

    :param vendor: vendor stack the trigger knocked over.
    :param vulnerability_class: "DoS" or "Crash" (Table VI labels).
    :param trigger: human-readable rendering of the trigger packet.
    :param trigger_hash: content hash of the minimised reproducer.
    :param device_id: profile the finding was first recorded against.
    :param state: state-plan entry under test at detection.
    :param error_message: canonical socket error observed.
    :param packets: the minimised reproducer, hex frames in send order.
    :param crash_id: vulnerability ID confirmed by replay, if any.
    :param sim_time: simulated first-detection time.
    :param occurrences: campaign findings collapsed into this bucket.
    :param target: fuzz-target (protocol) registry name of the campaign
        that recorded the finding; part of the dedup key and the replay
        recipe (the device must be prepared for the same protocol).
    """

    vendor: str
    vulnerability_class: str
    trigger: str
    trigger_hash: str
    device_id: str
    state: str
    error_message: str
    packets: tuple[str, ...]
    crash_id: str | None
    sim_time: float
    occurrences: int = 1
    target: str = "l2cap"

    @property
    def key(self) -> tuple[str, str, str, str]:
        """The shared dedup key (trigger slot carries the hash)."""
        return finding_key(
            self.vendor, self.vulnerability_class, self.trigger_hash, self.target
        )

    @property
    def bucket_id(self) -> str:
        """Filesystem-safe bucket name derived from :attr:`key`."""
        payload = json.dumps(list(self.key), separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:24]

    def decode_packets(self) -> list[L2capPacket]:
        """Materialise the reproducer for replay."""
        return packets_from_hex(self.packets)


def record_to_dict(record: FindingRecord) -> dict:
    """Render a record as a JSON-ready dict."""
    return {
        "vendor": record.vendor,
        "class": record.vulnerability_class,
        "trigger": record.trigger,
        "trigger_hash": record.trigger_hash,
        "device_id": record.device_id,
        "state": record.state,
        "error": record.error_message,
        "packets": list(record.packets),
        "crash_id": record.crash_id,
        "sim_time": round(record.sim_time, 6),
        "occurrences": record.occurrences,
        "target": record.target,
    }


def dict_to_record(data: dict) -> FindingRecord:
    """Rebuild a record from its dict form."""
    return FindingRecord(
        vendor=data["vendor"],
        vulnerability_class=data["class"],
        trigger=data["trigger"],
        trigger_hash=data["trigger_hash"],
        device_id=data["device_id"],
        state=data["state"],
        error_message=data["error"],
        packets=tuple(data["packets"]),
        crash_id=data.get("crash_id"),
        sim_time=float(data["sim_time"]),
        occurrences=int(data.get("occurrences", 1)),
        target=data.get("target", "l2cap"),
    )


def shrink_finding(
    finding: Finding,
    profile,
    packets: Sequence[L2capPacket],
    minimize: bool = True,
) -> FindingRecord | None:
    """Confirm and minimise a campaign finding into a storable record.

    *packets* is the fuzzer→target prefix up to the detection; it is
    replayed once to confirm the crash, delta-debugged down to the
    essential trigger (unless *minimize* is off), and bucketed under the
    minimised-trigger hash. The crash ID comes from the minimal
    sequence's own crashing replay — the last ddmin attempt that kept
    it, or the confirming replay — so no sequence is replayed twice.
    Reproducers always minimise to the *earliest* trigger in the prefix,
    so auto-reset campaigns that re-hit the same bug collapse into one
    bucket.

    Returns ``None`` when the prefix does not crash a fresh target.
    """
    fuzz_target = getattr(finding, "target", "l2cap")
    factory = profile_target_factory(profile, armed=True, fuzz_target=fuzz_target)
    sequence = list(packets)
    outcome = replay(sequence, factory)
    if not outcome.crashed:
        return None
    if minimize:
        sequence, outcome = shrink_trigger(sequence, factory, outcome)
    return FindingRecord(
        vendor=profile.vendor,
        vulnerability_class=finding.vulnerability_class.value,
        trigger=finding.trigger,
        trigger_hash=trigger_hash(sequence),
        device_id=profile.device_id,
        state=finding.state,
        error_message=finding.error_message,
        packets=tuple(packets_to_hex(sequence)),
        crash_id=outcome.crash_id,
        sim_time=finding.sim_time,
        target=fuzz_target,
    )
