"""Corpus storage benchmark: SQLite ingest, stats and query throughput.

Ingests one synthetic corpus (entries plus finding buckets, duplicates
included) into a fresh corpus database the way fleet shards write back
— one transaction per :data:`SHARD_ENTRIES` entries, one for the new
buckets, one for the duplicate pass — then times the two read paths
every consumer hammers: the aggregate ``stats()`` pass and filtered
``query_findings`` lookups (each the best of :data:`READ_TRIALS`
trials).

Every run appends to ``benchmarks/BENCH_storage.json``. Three gates,
one per metric: ingest throughput, ``stats()`` time and filtered-query
time must each stay within :data:`REGRESSION_TOLERANCE` of the median
of the last three recorded runs of the same mode and shard size.
"""

from __future__ import annotations

import datetime
import json
import shutil
import time
from pathlib import Path

from repro.corpus.entry import entry_from_packets
from repro.corpus.findings import FindingRecord
from repro.corpus.sqlite_backend import SqliteCorpusBackend
from repro.l2cap.packets import echo_request

from benchmarks.bench_helpers import print_table, run_once, scaled

ENTRIES = 12_000
QUICK_ENTRIES = 400
BUCKETS = 200
QUICK_BUCKETS = 30
QUERY_REPS = 20
QUICK_QUERY_REPS = 20

#: Entries per ingest transaction (a fleet shard's write-back).
SHARD_ENTRIES = 100

#: Timed repetitions of each read path; the fastest one is recorded.
READ_TRIALS = 3

#: Fail when a metric is more than this worse than the median of the
#: last three same-mode runs (ingest rate lower, read time higher by
#: the same factor).
REGRESSION_TOLERANCE = 0.35

RESULTS_PATH = Path(__file__).resolve().parent / "BENCH_storage.json"

STATES = ("CLOSED", "WAIT_CONNECT", "WAIT_CONFIG", "OPEN", "WAIT_DISCONNECT")
VENDORS = ("Google", "Apple", "Samsung", "Murata")

#: (metric, True when higher is better) — one gate each.
GATED = (
    ("ingest_eps", True),
    ("stat_seconds", False),
    ("query_seconds", False),
)


def _load_results() -> dict:
    if RESULTS_PATH.exists():
        return json.loads(RESULTS_PATH.read_text(encoding="utf-8"))
    return {"baseline": {}, "runs": []}


def _reference(runs: list[dict], mode: str, metric: str) -> float | None:
    """Median *metric* of the last 3 comparable *mode* runs.

    Comparable means the same mode and the same shard-sized ingest
    transactions; runs recorded before batched ingest carry no
    ``shard_entries`` field and never vote.
    """
    history = [
        run["sqlite"][metric]
        for run in runs
        if run["mode"] == mode and run.get("shard_entries") == SHARD_ENTRIES
    ]
    if not history:
        return None
    tail = sorted(history[-3:])
    return tail[len(tail) // 2]


def _synthetic_entries(count: int) -> list:
    entries = []
    for i in range(count):
        packet = echo_request(
            i.to_bytes(4, "big"), identifier=(i % 200) + 1
        )
        state = STATES[i % len(STATES)]
        tokens = [state]
        if i % 3 == 0:
            tokens.append(f"{state}>{STATES[(i + 1) % len(STATES)]}")
        entries.append(
            entry_from_packets(
                packets=[packet],
                unlocked=tokens,
                covered=tokens,
                device_id=f"D{i % 7}",
                strategy="sequential",
                seed=i,
                armed=False,
            )
        )
    return entries


def _synthetic_records(count: int) -> list[FindingRecord]:
    packet_hex = echo_request(b"bench", identifier=1).encode().hex()
    return [
        FindingRecord(
            vendor=VENDORS[i % len(VENDORS)],
            vulnerability_class="DoS" if i % 2 else "Crash",
            trigger=f"ECHO_REQ(bench-{i})",
            trigger_hash=f"{i:064x}",
            device_id=f"D{i % 7}",
            state=STATES[i % len(STATES)],
            error_message="Connection Failed",
            packets=(packet_hex,),
            crash_id=None,
            sim_time=float(i),
        )
        for i in range(count)
    ]


def _best_of(trials: int, func) -> float:
    best = float("inf")
    for _ in range(trials):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def _measure(backend, entries, records, query_reps: int) -> dict:
    start = time.perf_counter()
    for first in range(0, len(entries), SHARD_ENTRIES):
        backend.ingest([(entries[first : first + SHARD_ENTRIES], ())])
    backend.ingest([((), records)])
    backend.ingest([((), records)])  # duplicate pass: the occurrence bump
    ingest = time.perf_counter() - start

    def stats_pass():
        for _ in range(query_reps):
            backend.stats()

    def query_pass():
        for _ in range(query_reps):
            for vendor in VENDORS:
                backend.query_findings(vendor=vendor, vulnerability_class="DoS")

    stat_seconds = _best_of(READ_TRIALS, stats_pass)
    query_seconds = _best_of(READ_TRIALS, query_pass)

    stats = backend.stats()
    assert stats.entry_count == len(entries)
    assert stats.finding_count == len(records)
    assert stats.occurrence_total == 2 * len(records)
    operations = len(entries) + 2 * len(records)
    return {
        "ingest_seconds": round(ingest, 6),
        "ingest_eps": round(operations / ingest, 1),
        "stat_seconds": round(stat_seconds, 6),
        "query_seconds": round(query_seconds, 6),
    }


def _run(entry_count: int, bucket_count: int, query_reps: int) -> dict:
    entries = _synthetic_entries(entry_count)
    records = _synthetic_records(bucket_count)
    scratch = Path("benchmarks") / ".bench_storage_scratch"
    shutil.rmtree(scratch, ignore_errors=True)
    backend = SqliteCorpusBackend(scratch)
    try:
        return _measure(backend, entries, records, query_reps)
    finally:
        backend.close()
        shutil.rmtree(scratch, ignore_errors=True)


def bench_storage(benchmark, quick):
    entry_count = scaled(quick, ENTRIES, QUICK_ENTRIES)
    bucket_count = scaled(quick, BUCKETS, QUICK_BUCKETS)
    query_reps = scaled(quick, QUERY_REPS, QUICK_QUERY_REPS)
    result = run_once(
        benchmark, lambda: _run(entry_count, bucket_count, query_reps)
    )
    mode = "quick" if quick else "full"
    entry = {
        "mode": mode,
        "entries": entry_count,
        "buckets": bucket_count,
        "shard_entries": SHARD_ENTRIES,
        "sqlite": result,
        "recorded": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
    }

    data = _load_results()
    # References are computed over the runs recorded *before* this one:
    # a run must not vote on its own gate.
    references = {
        metric: _reference(data.get("runs", []), mode, metric)
        for metric, _ in GATED
    }
    data.setdefault("runs", []).append(entry)
    data["runs"] = data["runs"][-50:]
    if data.setdefault("baseline", {}).get(mode) is None:
        data["baseline"][mode] = entry
    RESULTS_PATH.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")

    print_table(
        f"corpus storage — {entry_count} entries ({mode})",
        [{"backend": "sqlite", **result}],
    )

    for metric, higher_is_better in GATED:
        reference = references[metric]
        if reference is None:
            continue
        value = result[metric]
        if higher_is_better:
            bound = reference * (1.0 - REGRESSION_TOLERANCE)
            ok = value >= bound
        else:
            bound = reference / (1.0 - REGRESSION_TOLERANCE)
            ok = value <= bound
        assert ok, (
            f"corpus storage regression: {metric} {value} is more than"
            f" {REGRESSION_TOLERANCE:.0%} worse than the median of the last"
            f" 3 {mode} runs ({reference}, bound {bound:.4g}); if this"
            " slowdown is intended, prune the runs list in"
            " benchmarks/BENCH_storage.json"
        )
