"""Corpus entries: content-addressed packet sequences + coverage keys.

A corpus entry is one fuzzer→target packet sequence that unlocked new
state or transition coverage when it was recorded, stored byte-exactly
as raw-frame hex (see :func:`repro.analysis.traceio.packets_to_hex`).
Entries are content-addressed: the entry ID is a SHA-256 over a
*canonical* JSON rendering of the replay-relevant content (packets,
target, armed flag), so

* the same sequence recorded twice — by two workers, or in two separate
  fleet runs — lands on the same ID and deduplicates for free, and
* the ID survives any JSON round-trip, whatever key order or whitespace
  the serialiser picked (the hypothesis property the tests pin down).

Coverage is carried as plain string tokens: a state name for a
state-plan visit (``"OPEN"``) and ``"A>B"`` for a traversed transition.
``unlocked`` is what *this* entry added when it was recorded; ``covered``
is everything the sequence demonstrably exercises (its own prefix
coverage), which is what ``cmin``-style minimisation selects over.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from collections.abc import Iterable

from repro.analysis.traceio import packets_from_hex, packets_to_hex
from repro.l2cap.packets import L2capPacket


def transition_token(source: str, destination: str) -> str:
    """Coverage token of one state-plan transition."""
    return f"{source}>{destination}"


def content_id(
    packets: Iterable[str], device_id: str, armed: bool, target: str = "l2cap"
) -> str:
    """Content-hash ID over the replay-relevant fields.

    The payload is canonical JSON — sorted keys, no whitespace — so the
    ID depends only on the content, never on how a particular dump
    happened to order or format its keys. The fuzz-target name is part
    of the content: the same wire bytes recorded by two protocol
    campaigns are two different replay recipes (each needs its own
    device preparation), so they must never collide on one ID.
    """
    payload = json.dumps(
        {
            "armed": bool(armed),
            "device_id": device_id,
            "packets": list(packets),
            "target": target,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


@dataclasses.dataclass(frozen=True)
class CorpusEntry:
    """One interesting packet sequence.

    :param packets: fuzzer→target raw frames, hex-encoded, send order.
    :param unlocked: coverage tokens this sequence newly unlocked when
        it was recorded.
    :param covered: every coverage token the sequence exercises.
    :param device_id: testbed profile the sequence was recorded against.
    :param strategy: exploration strategy of the recording campaign.
    :param seed: seed of the recording campaign.
    :param armed: whether the target's injected bugs were armed.
    :param target: fuzz-target (protocol) registry name of the
        recording campaign; part of the content ID.
    """

    packets: tuple[str, ...]
    unlocked: tuple[str, ...]
    covered: tuple[str, ...]
    device_id: str
    strategy: str
    seed: int
    armed: bool
    target: str = "l2cap"

    @functools.cached_property
    def entry_id(self) -> str:
        """The content-hash ID (stable across serialisation), computed once."""
        return content_id(self.packets, self.device_id, self.armed, self.target)

    @property
    def packet_count(self) -> int:
        """Length of the sequence (the cmin minimisation cost)."""
        return len(self.packets)

    def decode_packets(self) -> list[L2capPacket]:
        """Materialise the sequence as packet objects, for replay."""
        return packets_from_hex(self.packets)


def entry_from_packets(
    packets: Iterable[L2capPacket],
    unlocked: Iterable[str],
    covered: Iterable[str],
    device_id: str,
    strategy: str,
    seed: int,
    armed: bool,
    target: str = "l2cap",
) -> CorpusEntry:
    """Build an entry from live packet objects."""
    return CorpusEntry(
        packets=tuple(packets_to_hex(packets)),
        unlocked=tuple(sorted(set(unlocked))),
        covered=tuple(sorted(set(covered))),
        device_id=device_id,
        strategy=strategy,
        seed=seed,
        armed=armed,
        target=target,
    )


def entry_to_dict(entry: CorpusEntry) -> dict:
    """Render an entry as a JSON-ready dict (one JSONL line)."""
    return {
        "id": entry.entry_id,
        "packets": list(entry.packets),
        "unlocked": list(entry.unlocked),
        "covered": list(entry.covered),
        "device_id": entry.device_id,
        "strategy": entry.strategy,
        "seed": entry.seed,
        "armed": entry.armed,
        "target": entry.target,
    }


def entry_line(entry: CorpusEntry) -> str:
    """The canonical one-line JSON rendering of *entry*.

    This exact string is what the database stores and what export
    writes, which is what makes export byte-equal by construction.
    """
    return json.dumps(entry_to_dict(entry), sort_keys=True) + "\n"


def dict_to_entry(record: dict) -> CorpusEntry:
    """Rebuild an entry from its dict form.

    :raises KeyError: on missing fields.
    :raises ValueError: when a stored ``id`` disagrees with the
        recomputed content hash (corrupted or hand-edited entry).
    """
    entry = CorpusEntry(
        packets=tuple(record["packets"]),
        unlocked=tuple(record["unlocked"]),
        covered=tuple(record["covered"]),
        device_id=record["device_id"],
        strategy=record["strategy"],
        seed=int(record["seed"]),
        armed=bool(record["armed"]),
        target=record.get("target", "l2cap"),
    )
    stored = record.get("id")
    if stored is not None and stored != entry.entry_id:
        raise ValueError(
            f"corpus entry id mismatch: stored {stored}, content {entry.entry_id}"
        )
    return entry
