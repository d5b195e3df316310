"""Campaign write-back: finished campaigns into the shared corpus.

Every consumer of a corpus directory — this write-back, the fleet
runtime's shards, the scheduler prior, replay, the CLI — opens its
database with :func:`~repro.corpus.backend.open_backend` and calls the
:class:`~repro.corpus.sqlite_backend.SqliteCorpusBackend` directly.

Write-back replays only what the fuzzer *sent*: each campaign's batch
(:func:`campaign_batch`) is built from its sniffer's
:meth:`~repro.analysis.sniffer.PacketSniffer.sent_packets`, which the
sent capture (``retain_trace="sent"``) and the full trace both serve.
:func:`ingest_batches` then writes a whole shard's batches in one
transaction, so the database write lock is never held across a replay
and a failed write-back leaves the corpus untouched. The fleet runtime
builds each batch as soon as its campaign ends and drops the campaign;
:func:`record_campaigns` does both steps for campaigns held in hand.
"""

from __future__ import annotations

from repro.analysis.traceio import packets_to_hex
from repro.corpus.backend import open_backend
from repro.corpus.entry import CorpusEntry


def record_campaign(root, profile, fuzzer, report, armed: bool = True) -> dict:
    """Write one finished campaign back into the shared corpus.

    Persists every coverage-unlock prefix the fuzzer logged as a corpus
    entry, and every finding as a crash bucket (minimised to its
    essential trigger). Returns a small summary dict
    ``{"entries_added", "findings_new", "findings_duplicate"}``.
    """
    return record_campaigns(root, [(profile, fuzzer, report)], armed)[0]


def record_campaigns(root, campaigns, armed: bool = True) -> list[dict]:
    """Shard write-back: many campaigns, one transaction.

    *campaigns* is an iterable of ``(profile, fuzzer, report)`` triples.
    Every entry and every shrunk finding record of the batch is built
    first — all replays happen before the database is touched — and
    then written by :func:`ingest_batches`. Returns one stats dict per
    campaign, in input order.
    """
    return ingest_batches(
        root,
        [
            campaign_batch(profile, fuzzer, report, armed)
            for profile, fuzzer, report in campaigns
        ],
    )


def ingest_batches(root, batches) -> list[dict]:
    """Write :func:`campaign_batch` results in one transaction.

    The transaction is retried as a unit on lock contention. Counts are
    per batch and exactly what campaign-by-campaign writes would
    report, repeats inside the call included. Returns one stats dict
    per batch, in input order.
    """
    backend = open_backend(root)
    try:
        return backend.ingest(batches)
    finally:
        backend.close()


def _detection_prefix(sent_packets, finding) -> list:
    """The fuzzer→target packets that led to *finding*, trigger last.

    Cut by the finding's recorded send index — the number of packets on
    the wire at detection — so packets transmitted *after* the
    detection but at the same simulated tick (the detector's liveness
    probes, auto-reset traffic) never leak into the stored reproducer.

    :raises ValueError: if the finding carries no send index (every
        campaign finding does; the sent capture has no timestamps to
        cut by instead).
    """
    cut = finding.sent_index
    if cut is None:
        raise ValueError(
            "finding has no sent_index, so its reproducer prefix cannot "
            "be cut from the sent packets"
        )
    return sent_packets[:cut]


def campaign_batch(profile, fuzzer, report, armed: bool):
    """One finished campaign's ``(entries, finding records)``, replays done.

    Reads the fuzzer's sent packets, coverage log and findings only, so
    the campaign can be dropped as soon as this returns.
    """
    from repro.corpus import findings

    target_name = getattr(getattr(fuzzer, "target", None), "name", "l2cap")
    sent_packets = fuzzer.sniffer.sent_packets()
    # The unlock prefixes nest: hex-encode each sent packet once and
    # slice the frames per entry.
    longest = max((prefix_len for _, prefix_len in fuzzer.coverage_log), default=0)
    frames = tuple(packets_to_hex(sent_packets[:longest]))
    cumulative: set[str] = set()
    entries = []
    for tokens, prefix_len in fuzzer.coverage_log:
        cumulative.update(tokens)
        if prefix_len == 0:
            # Coverage unlocked before anything was sent (the plan's
            # entry posture): nothing to replay, nothing worth storing.
            continue
        entries.append(
            CorpusEntry(
                packets=frames[:prefix_len],
                unlocked=tuple(sorted(set(tokens))),
                covered=tuple(sorted(cumulative)),
                device_id=profile.device_id,
                strategy=report.strategy,
                seed=fuzzer.config.seed,
                armed=armed,
                target=target_name,
            )
        )
    records = []
    for finding in report.findings:
        record = findings.shrink_finding(
            finding, profile, _detection_prefix(sent_packets, finding)
        )
        if record is not None:
            records.append(record)
    return entries, records


__all__ = [
    "campaign_batch",
    "ingest_batches",
    "record_campaign",
    "record_campaigns",
]
