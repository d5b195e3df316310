"""Persistent fleet execution runtime: batched workers, compact results.

The first fleet orchestrator paid a fixed tax per ``run()``: a fresh
``ProcessPoolExecutor``, one pickled job per campaign carrying the full
campaign context (config, corpus prior, splice dictionary), and a full
:class:`~repro.core.report.CampaignReport` object graph pickled back per
campaign. This module replaces that with the runtime the paper's
throughput-per-dongle argument (Table 7) wants the simulated fleet to
demonstrate:

* **Persistent workers** — worker processes are started once per
  runtime and initialise their campaign context (config template,
  corpus visit prior, mutation dictionary) exactly once, via the pool
  initializer. Task messages shrink to bare campaign coordinates.
* **Batched shards** — campaigns ship to workers in shards of
  :data:`~FleetRuntime.batch` specs per message, amortising the
  executor round trip; a shard's campaigns run back to back on one
  worker, like a dongle working through its queue.
* **Compact binary summaries** — workers stream back
  :class:`CampaignSummary` blobs (a versioned struct-packed encoding:
  coverage tokens, finding records, efficiency counters, stream
  samples) instead of pickled reports. Everything the fleet merge needs
  lives in the summary; the full ``CampaignReport`` object graph is
  reconstructed lazily, only when markdown/JSON export (or a caller
  poking ``run.report``) asks — see :class:`SummaryRun`.
* **Batched corpus write-back** — with a shared corpus, a worker opens
  the store and finding database once per shard and records every
  campaign of the shard through the same handles, instead of a
  load/write cycle per campaign.

Determinism is untouched: summaries are pure functions of the campaign,
campaigns are pure functions of their derived seed, and results are
re-ordered by spec index — the merged fleet report is byte-identical
for any worker count and any batch size (pinned by the
worker-independence tests).

Dispatch has two paths: one worker runs every shard inline, in the
calling process; more workers run shards over a supervised process
pool. (``run_specs(supervised=False)`` — a bare ``pool.map`` — remains
only as the reference the supervision-overhead benchmark compares
against.)

**Supervision** (the multi-worker default) dispatches shards as
individual futures instead of one ``pool.map``: each in-flight shard
carries a deadline derived from observed shard latency, worker death
(``BrokenProcessPool``) and hangs restart the pool and requeue the lost
shards with capped exponential backoff, and a shard that keeps failing
is bisected until the single poison campaign is isolated, confirmed by
a solo re-run, and quarantined — reported as a diagnostic in the fleet
report rather than aborting the run. Because campaigns are pure
functions of their seeds and merges are associative, none of this
perturbs results: a run that weathered crashes, hangs and requeues
merges to the byte-identical report of a fault-free run (pinned by the
fault-tolerance tests). Completed shards checkpoint their summary blobs
into the telemetry run directory, so an interrupted run can be resumed
re-running only the missing shards.
"""

from __future__ import annotations

import dataclasses
import logging
import os
import struct
import threading
import time
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from pathlib import Path
from statistics import median

from repro.analysis.metrics import MutationEfficiency, measure
from repro.core.config import FuzzConfig
from repro.core.detection import Finding, VulnerabilityClass
from repro.core.faults import FaultPlan
from repro.core.report import CampaignReport
from repro.durability import atomic_write
from repro.errors import ReproError

_log = logging.getLogger(__name__)

#: Format version stamped on every encoded summary blob.
#: v2 added the per-finding ``sent_index`` (reproducer-prefix cut).
SUMMARY_FORMAT_VERSION = 2

#: Wire sentinel for a finding without a recorded ``sent_index``.
_NO_SENT_INDEX = 0xFFFFFFFF

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")

#: Escape marker for string/collection sizes >= 255 (u8 prefix + u32).
_SIZE_ESCAPE = 0xFF


@dataclasses.dataclass(frozen=True)
class FindingSummary:
    """One campaign finding, flattened to plain data for the wire."""

    vulnerability_class: str
    error_message: str
    state: str
    trigger: str
    sim_time: float
    ping_failed: bool
    crash_dump: str
    target: str
    sent_index: int | None = None

    def to_finding(self) -> Finding:
        """Reconstruct the engine-side :class:`Finding` object."""
        return Finding(
            vulnerability_class=VulnerabilityClass(self.vulnerability_class),
            error_message=self.error_message,
            state=self.state,
            trigger=self.trigger,
            sim_time=self.sim_time,
            ping_failed=self.ping_failed,
            crash_dump=self.crash_dump or None,
            target=self.target,
            sent_index=self.sent_index,
        )

    @classmethod
    def from_finding(cls, finding: Finding) -> "FindingSummary":
        return cls(
            vulnerability_class=finding.vulnerability_class.value,
            error_message=finding.error_message,
            state=finding.state,
            trigger=finding.trigger,
            sim_time=finding.sim_time,
            ping_failed=finding.ping_failed,
            crash_dump=finding.crash_dump or "",
            target=finding.target,
            sent_index=finding.sent_index,
        )


@dataclasses.dataclass(frozen=True)
class CampaignSummary:
    """Everything the fleet merge needs from one campaign, as plain data.

    This is the worker→orchestrator wire unit. Coverage travels as the
    state-name tokens the merge and corpus already key by; findings as
    :class:`FindingSummary` rows; the Table VII counters raw (the ratios
    are derived). ``coverage_samples`` is the sniffer's streamed
    coverage-unlock series — ``(distinct states, packets sent)`` points
    — so fleet-level coverage-over-time pictures never need the trace.

    :meth:`to_report` rebuilds the full :class:`CampaignReport`
    (enum members, :class:`Finding` objects, efficiency wrapper); the
    result is ``==`` to the report the campaign produced in-process,
    which the summary round-trip tests pin per target.
    """

    target_name: str
    fuzz_target: str
    strategy: str
    state_space: int
    packets_sent: int
    sweeps_completed: int
    elapsed_seconds: float
    transmitted: int
    malformed: int
    received: int
    rejections: int
    covered_states: tuple[str, ...]
    state_visits: tuple[tuple[str, int], ...]
    transition_visits: tuple[tuple[str, str, int], ...]
    findings: tuple[FindingSummary, ...]
    coverage_samples: tuple[tuple[int, int], ...]
    corpus_entries_added: int = 0
    corpus_findings_new: int = 0
    corpus_findings_duplicate: int = 0

    def to_report(self) -> CampaignReport:
        """Reconstruct the full campaign report object graph."""
        from repro.targets import make_target

        universe = {
            state.value: state
            for state in make_target(self.fuzz_target).state_universe()
        }
        return CampaignReport(
            target_name=self.target_name,
            findings=tuple(finding.to_finding() for finding in self.findings),
            elapsed_seconds=self.elapsed_seconds,
            packets_sent=self.packets_sent,
            sweeps_completed=self.sweeps_completed,
            efficiency=MutationEfficiency(
                transmitted=self.transmitted,
                malformed=self.malformed,
                received=self.received,
                rejections=self.rejections,
                elapsed_seconds=self.elapsed_seconds,
            ),
            covered_states=frozenset(
                universe[token] for token in self.covered_states
            ),
            strategy=self.strategy,
            state_visits=self.state_visits,
            transition_visits=self.transition_visits,
            fuzz_target=self.fuzz_target,
            state_space=self.state_space,
        )


def summarize_session(session, report: CampaignReport) -> CampaignSummary:
    """Condense a finished :class:`~repro.testbed.session.FuzzSession`.

    Reads the counters off the campaign's sniffer rather than the report
    wrapper so the summary works for streaming (``retain_trace=False``)
    campaigns too.
    """
    sniffer = session.fuzzer.sniffer
    return CampaignSummary(
        target_name=report.target_name,
        fuzz_target=report.fuzz_target,
        strategy=report.strategy,
        state_space=report.state_space,
        packets_sent=report.packets_sent,
        sweeps_completed=report.sweeps_completed,
        elapsed_seconds=report.elapsed_seconds,
        transmitted=report.efficiency.transmitted,
        malformed=report.efficiency.malformed,
        received=report.efficiency.received,
        rejections=report.efficiency.rejections,
        covered_states=tuple(
            sorted(state.value for state in report.covered_states)
        ),
        state_visits=report.state_visits,
        transition_visits=report.transition_visits,
        findings=tuple(
            FindingSummary.from_finding(finding) for finding in report.findings
        ),
        coverage_samples=sniffer.coverage_unlocks,
    )


# ---------------------------------------------------------------------------
# Binary codec
# ---------------------------------------------------------------------------


def _pack_size(parts: list, size: int) -> None:
    """Compact size: one byte for <255, escape + u32 beyond.

    Nearly every size in a summary — state-token lengths, visit counts,
    finding counts — is tiny; paying four bytes each is what made the
    first cut of this format fatter than a pickle.
    """
    if size < _SIZE_ESCAPE:
        parts.append(bytes((size,)))
    else:
        parts.append(bytes((_SIZE_ESCAPE,)))
        parts.append(_U32.pack(size))


def _pack_str(parts: list, text: str) -> None:
    raw = text.encode("utf-8")
    _pack_size(parts, len(raw))
    parts.append(raw)


class _Reader:
    """Sequential decoder over one summary blob."""

    __slots__ = ("blob", "offset")

    def __init__(self, blob: bytes) -> None:
        self.blob = blob
        self.offset = 0

    def size(self) -> int:
        value = self.blob[self.offset]
        self.offset += 1
        if value == _SIZE_ESCAPE:
            return self.u32()
        return value

    def u32(self) -> int:
        (value,) = _U32.unpack_from(self.blob, self.offset)
        self.offset += 4
        return value

    def f64(self) -> float:
        (value,) = struct.unpack_from("<d", self.blob, self.offset)
        self.offset += 8
        return value

    def text(self) -> str:
        length = self.size()
        raw = self.blob[self.offset : self.offset + length]
        self.offset += length
        return raw.decode("utf-8")


def encode_summary(summary: CampaignSummary) -> bytes:
    """Serialise *summary* to the compact versioned wire format.

    Struct-packed integers and length-prefixed UTF-8 — a few hundred
    bytes per campaign instead of a pickled report object graph, and a
    stable format the orchestrator can decode without importing any
    campaign machinery.
    """
    parts: list = [struct.pack("<B", SUMMARY_FORMAT_VERSION)]
    for text in (summary.target_name, summary.fuzz_target, summary.strategy):
        _pack_str(parts, text)
    parts.append(
        struct.pack(
            "<IIId",
            summary.state_space,
            summary.packets_sent,
            summary.sweeps_completed,
            summary.elapsed_seconds,
        )
    )
    parts.append(
        struct.pack(
            "<IIII",
            summary.transmitted,
            summary.malformed,
            summary.received,
            summary.rejections,
        )
    )
    parts.append(
        struct.pack(
            "<III",
            summary.corpus_entries_added,
            summary.corpus_findings_new,
            summary.corpus_findings_duplicate,
        )
    )
    # State-name token table: every coverage/visit/transition row
    # references a token index instead of repeating the string (the
    # same dozen state names appear across all three sections).
    tokens = sorted(
        {token for token in summary.covered_states}
        | {token for token, _ in summary.state_visits}
        | {source for source, _, _ in summary.transition_visits}
        | {destination for _, destination, _ in summary.transition_visits}
    )
    index_of = {token: index for index, token in enumerate(tokens)}
    _pack_size(parts, len(tokens))
    for token in tokens:
        _pack_str(parts, token)
    _pack_size(parts, len(summary.covered_states))
    for token in summary.covered_states:
        _pack_size(parts, index_of[token])
    _pack_size(parts, len(summary.state_visits))
    for token, count in summary.state_visits:
        _pack_size(parts, index_of[token])
        parts.append(_U32.pack(count))
    _pack_size(parts, len(summary.transition_visits))
    for source, destination, count in summary.transition_visits:
        _pack_size(parts, index_of[source])
        _pack_size(parts, index_of[destination])
        parts.append(_U32.pack(count))
    _pack_size(parts, len(summary.findings))
    for finding in summary.findings:
        for text in (
            finding.vulnerability_class,
            finding.error_message,
            finding.state,
            finding.trigger,
            finding.crash_dump,
            finding.target,
        ):
            _pack_str(parts, text)
        parts.append(
            struct.pack(
                "<dBI",
                finding.sim_time,
                finding.ping_failed,
                _NO_SENT_INDEX
                if finding.sent_index is None
                else finding.sent_index,
            )
        )
    _pack_size(parts, len(summary.coverage_samples))
    for states, sent in summary.coverage_samples:
        _pack_size(parts, states)
        parts.append(_U32.pack(sent))
    return b"".join(parts)


class AbortRequested(ReproError):
    """A :meth:`FleetRuntime.run_specs` call stopped on caller request.

    Raised when the caller's ``should_abort`` hook fires mid-dispatch —
    the control plane's cancel path. Pending shards are dropped without
    being dispatched; shards already on workers run to completion (a
    process-pool task cannot be interrupted) and still write their
    checkpoints, which is exactly the resume trail a cancelled job
    needs.
    """


class SummaryDecodeError(ReproError, ValueError):
    """A campaign-summary blob that cannot be decoded.

    Raised for truncated, corrupt, or unknown-version blobs — the
    typed signal the supervision layer retries on and the checkpoint
    loader skips tolerantly (a partial checkpoint file from a killed
    worker must read as "missing", never crash the resume). Subclasses
    :class:`ValueError` for compatibility with callers that caught the
    old untyped version error.
    """


def decode_summary(blob: bytes) -> CampaignSummary:
    """Decode one :func:`encode_summary` blob.

    :raises SummaryDecodeError: on an empty, truncated, corrupt, or
        unknown-version blob.
    """
    if not blob:
        raise SummaryDecodeError("empty campaign-summary blob")
    version = blob[0]
    if version != SUMMARY_FORMAT_VERSION:
        raise SummaryDecodeError(
            f"unknown campaign-summary format version {version} "
            f"(expected {SUMMARY_FORMAT_VERSION})"
        )
    try:
        summary = _decode_summary_body(blob)
    except (struct.error, IndexError, UnicodeDecodeError) as error:
        raise SummaryDecodeError(
            f"truncated or corrupt campaign-summary blob "
            f"({len(blob)} bytes): {error}"
        ) from error
    return summary


def _decode_summary_body(blob: bytes) -> CampaignSummary:
    reader = _Reader(blob)
    reader.offset = 1
    target_name = reader.text()
    fuzz_target = reader.text()
    strategy = reader.text()
    state_space, packets_sent, sweeps_completed = (
        reader.u32(),
        reader.u32(),
        reader.u32(),
    )
    elapsed_seconds = reader.f64()
    transmitted, malformed, received, rejections = (
        reader.u32(),
        reader.u32(),
        reader.u32(),
        reader.u32(),
    )
    corpus_entries_added = reader.u32()
    corpus_findings_new = reader.u32()
    corpus_findings_duplicate = reader.u32()
    tokens = tuple(reader.text() for _ in range(reader.size()))
    covered_states = tuple(tokens[reader.size()] for _ in range(reader.size()))
    state_visits = tuple(
        (tokens[reader.size()], reader.u32()) for _ in range(reader.size())
    )
    transition_visits = tuple(
        (tokens[reader.size()], tokens[reader.size()], reader.u32())
        for _ in range(reader.size())
    )
    findings = []
    for _ in range(reader.size()):
        vulnerability_class = reader.text()
        error_message = reader.text()
        state = reader.text()
        trigger = reader.text()
        crash_dump = reader.text()
        target = reader.text()
        sim_time = reader.f64()
        ping_failed = bool(blob[reader.offset])
        reader.offset += 1
        sent_index = reader.u32()
        findings.append(
            FindingSummary(
                vulnerability_class=vulnerability_class,
                error_message=error_message,
                state=state,
                trigger=trigger,
                sim_time=sim_time,
                ping_failed=ping_failed,
                crash_dump=crash_dump,
                target=target,
                sent_index=None if sent_index == _NO_SENT_INDEX else sent_index,
            )
        )
    coverage_samples = tuple(
        (reader.size(), reader.u32()) for _ in range(reader.size())
    )
    if reader.offset != len(blob):
        # Over-read happens when a truncated tail was absorbed by a
        # short slice instead of raising; under-read is trailing junk.
        raise SummaryDecodeError(
            f"campaign-summary decode consumed {reader.offset} of "
            f"{len(blob)} bytes"
        )
    return CampaignSummary(
        target_name=target_name,
        fuzz_target=fuzz_target,
        strategy=strategy,
        state_space=state_space,
        packets_sent=packets_sent,
        sweeps_completed=sweeps_completed,
        elapsed_seconds=elapsed_seconds,
        transmitted=transmitted,
        malformed=malformed,
        received=received,
        rejections=rejections,
        covered_states=covered_states,
        state_visits=state_visits,
        transition_visits=transition_visits,
        findings=tuple(findings),
        coverage_samples=coverage_samples,
        corpus_entries_added=corpus_entries_added,
        corpus_findings_new=corpus_findings_new,
        corpus_findings_duplicate=corpus_findings_duplicate,
    )


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class FleetContext:
    """Everything a worker initialises once, shipped at pool start-up.

    Task messages afterwards carry only campaign coordinates (a few
    dozen bytes per campaign), not this context — the per-task pickling
    the old per-run pools paid.
    """

    base_config: FuzzConfig
    armed: bool
    target_state_value: str
    corpus_dir: str | None
    retain_trace: bool
    prior_visits: tuple[tuple[str, int], ...]
    dictionary: tuple[bytes, ...]
    #: Telemetry root directory; None runs the fleet without telemetry
    #: (the default — observation is strictly opt-in).
    telemetry_dir: str | None = None
    #: The fleet run every worker journal segment correlates to.
    run_id: str | None = None
    #: Dump a cProfile per worker shard under the run's profiles/ dir.
    profile_workers: bool = False
    #: Deterministic fault injection (chaos runs and recovery tests);
    #: None — the production default — injects nothing.
    fault_plan: FaultPlan | None = None


#: Bare campaign coordinates: (index, device_id, strategy, seed, target).
ShardSpec = tuple[int, str, str, int, str]

#: Per-process campaign context, set once by the pool initializer.
_WORKER_CONTEXT: FleetContext | None = None


def _worker_init(context: FleetContext) -> None:
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = context


def _run_shard(
    shard: Sequence[ShardSpec], context: FleetContext | None = None
) -> list[bytes]:
    """Process-pool task: run one shard against the initialised context.

    *context*, when given, overrides the pool-initialised context for
    this task only — the control plane ships each job's context with
    its shards so one warm pool serves jobs with different configs,
    corpus namespaces and telemetry run directories.
    """
    return run_shard(
        context if context is not None else _WORKER_CONTEXT,
        shard,
        in_process_worker=True,
    )


def _open_shard_journal(context: FleetContext, shard: Sequence[ShardSpec]):
    """The shard's journal segment writer, or None when telemetry is off."""
    if context.telemetry_dir is None or context.run_id is None:
        return None
    from repro.telemetry import shard_journal

    return shard_journal(context.telemetry_dir, context.run_id, shard[0][0])


def _emit_campaign_telemetry(
    journal, index: int, session, report, summary: CampaignSummary, wall: float
) -> None:
    """Worker-side campaign events: Logfile bridge, findings, counters.

    Emitted strictly *after* the campaign finished — telemetry reads
    the session's counters, it never participates in execution, so the
    campaign stays byte-identical with telemetry on or off (pinned by
    the telemetry-parity tests).
    """
    from repro.telemetry import journal_fuzz_log

    journal_fuzz_log(journal, session.fuzzer.log, campaign=index)
    for ordinal, finding in enumerate(summary.findings):
        journal.emit(
            "finding",
            campaign=index,
            finding=ordinal,
            vulnerability_class=finding.vulnerability_class,
            state=finding.state,
            trigger=finding.trigger,
            target=finding.target,
            vendor=session.profile.vendor,
            sim_time=round(finding.sim_time, 6),
        )
    journal.emit(
        "campaign_end",
        campaign=index,
        device=session.profile.device_id,
        strategy=summary.strategy,
        target=summary.fuzz_target,
        packets_sent=summary.packets_sent,
        sweeps=summary.sweeps_completed,
        elapsed_sim_seconds=round(summary.elapsed_seconds, 6),
        wall_seconds=round(wall, 6),
        sent=summary.transmitted,
        malformed=summary.malformed,
        received=summary.received,
        rejections=summary.rejections,
        covered_states=list(summary.covered_states),
        state_space=summary.state_space,
        findings=len(summary.findings),
        coverage_unlocks=len(summary.coverage_samples),
        engine_outcomes=session.device.engine.outcome_totals(),
    )


def run_shard(
    context: FleetContext,
    shard: Sequence[ShardSpec],
    in_process_worker: bool = False,
) -> list[bytes]:
    """Run every campaign of *shard* back to back; return summary blobs.

    Campaigns run with corpus write-back deferred: sessions execute
    without a corpus directory, and the whole shard is recorded through
    one storage-backend handle at the end (
    :func:`repro.corpus.store.record_campaigns`, which autodetects the
    directory's backend — JSON files or SQLite) — one batched
    write-back per shard instead of one open/scan/write cycle per
    campaign.

    With telemetry enabled on the context, the shard writes its own
    journal segment — shard span events, per-campaign start/end events
    carrying the sniffer/engine counters, finding events and the
    bridged Logfile records — to its private segment file, which the
    orchestrator merges at run boundaries. Same flow as the summary
    blobs: no new IPC, no locks, nothing on the packet hot path.
    """
    from repro.core.strategies import make_strategy
    from repro.l2cap.states import ChannelState
    from repro.testbed.profiles import PROFILES_BY_ID
    from repro.testbed.session import FuzzSession

    if context.fault_plan is not None:
        # Shard-boundary fault injection: planned crashes die and hangs
        # stall *here*, before any journal or corpus side effect, so a
        # requeued shard re-runs from a clean slate.
        context.fault_plan.on_shard_start(shard, in_process_worker)
    journal = _open_shard_journal(context, shard)
    profiler = None
    if context.profile_workers and journal is not None:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    shard_started = time.perf_counter()
    if journal is not None:
        journal.emit(
            "shard_start",
            specs=[index for index, *_ in shard],
            campaigns=len(shard),
        )
    prior_visits = dict(context.prior_visits)
    target_state = ChannelState(context.target_state_value)
    finished = []  # (profile, session, report) for the batched write-back
    blobs: list[bytes] = []
    for index, device_id, strategy_name, seed, target in shard:
        profile = PROFILES_BY_ID[device_id]
        if journal is not None:
            journal.emit(
                "campaign_start",
                campaign=index,
                device=device_id,
                strategy=strategy_name,
                target=target,
                seed=seed,
            )
        campaign_started = time.perf_counter()
        session = FuzzSession(
            profile=profile,
            config=dataclasses.replace(context.base_config, seed=seed),
            armed=context.armed,
            strategy=make_strategy(
                strategy_name,
                target=target_state,
                prior_visits=prior_visits or None,
            ),
            dictionary=context.dictionary,
            retain_trace=context.retain_trace,
            target=target,
        )
        report = session.run()
        summary = summarize_session(session, report)
        if journal is not None:
            _emit_campaign_telemetry(
                journal,
                index,
                session,
                report,
                summary,
                time.perf_counter() - campaign_started,
            )
        if context.corpus_dir is not None:
            finished.append((profile, session.fuzzer, report, summary))
        else:
            blobs.append(encode_summary(summary))
    if context.corpus_dir is not None:
        from repro.corpus.store import record_campaigns

        if context.fault_plan is not None:
            # Transient corpus-IO faults fire before anything is
            # written, so the requeued shard cannot double-write.
            context.fault_plan.on_corpus_writeback(shard)
        stats = record_campaigns(
            context.corpus_dir,
            [
                (profile, fuzzer, report)
                for profile, fuzzer, report, _ in finished
            ],
            armed=context.armed,
        )
        for spec, (_, _, _, summary), campaign_stats in zip(
            shard, finished, stats
        ):
            if journal is not None:
                journal.emit(
                    "corpus_writeback",
                    campaign=spec[0],
                    entries_added=campaign_stats["entries_added"],
                    findings_new=campaign_stats["findings_new"],
                    findings_duplicate=campaign_stats["findings_duplicate"],
                )
            blobs.append(
                encode_summary(
                    dataclasses.replace(
                        summary,
                        corpus_entries_added=campaign_stats["entries_added"],
                        corpus_findings_new=campaign_stats["findings_new"],
                        corpus_findings_duplicate=campaign_stats[
                            "findings_duplicate"
                        ],
                    )
                )
            )
    if journal is not None:
        journal.emit(
            "shard_end",
            campaigns=len(shard),
            wall_seconds=round(time.perf_counter() - shard_started, 6),
        )
        journal.close()
    if profiler is not None:
        profiler.disable()
        from repro.telemetry import PROFILES_DIRNAME

        profile_dir = (
            Path(context.telemetry_dir) / context.run_id / PROFILES_DIRNAME
        )
        profile_dir.mkdir(parents=True, exist_ok=True)
        profiler.dump_stats(
            profile_dir / f"worker-{os.getpid()}-shard-{shard[0][0]:06d}.prof"
        )
    if context.fault_plan is not None:
        blobs = context.fault_plan.corrupt_blobs(shard, blobs)
    if context.telemetry_dir is not None and context.run_id is not None:
        write_checkpoints(
            Path(context.telemetry_dir) / context.run_id, shard, blobs
        )
    return blobs


# ---------------------------------------------------------------------------
# Shard checkpoints
# ---------------------------------------------------------------------------

#: Per-run directory holding one summary blob per completed campaign.
CHECKPOINTS_DIRNAME = "checkpoints"


def _checkpoint_path(run_dir: Path, index: int) -> Path:
    return run_dir / CHECKPOINTS_DIRNAME / f"campaign-{index:06d}.bin"


def write_checkpoints(
    run_dir: Path, shard: Sequence[ShardSpec], blobs: Sequence[bytes]
) -> None:
    """Persist a completed shard's summary blobs, one file per campaign.

    Writes are atomic (:func:`~repro.durability.atomic_write`): a
    reader — or a resumed run — sees either a whole blob or no file,
    never a torn one; a worker killed mid-write leaves at worst a stale
    temp file the ``campaign-*.bin`` glob never matches. A retried
    shard simply overwrites its campaigns' files with the identical
    bytes (campaigns are pure functions of their seeds).
    """
    checkpoint_dir = run_dir / CHECKPOINTS_DIRNAME
    checkpoint_dir.mkdir(parents=True, exist_ok=True)
    for spec, blob in zip(shard, blobs):
        atomic_write(_checkpoint_path(run_dir, spec[0]), blob)


def load_checkpoints(run_dir: Path) -> dict[int, CampaignSummary]:
    """Read every decodable shard checkpoint under *run_dir*.

    Tolerant by design, mirroring the journal's torn-line handling: a
    truncated or corrupt checkpoint (worker killed mid-run, injected
    corruption) is skipped — it reads as "campaign not done", and the
    resumed run re-executes it.
    """
    checkpoint_dir = Path(run_dir) / CHECKPOINTS_DIRNAME
    summaries: dict[int, CampaignSummary] = {}
    if not checkpoint_dir.is_dir():
        return summaries
    for path in sorted(checkpoint_dir.glob("campaign-*.bin")):
        try:
            index = int(path.stem.split("-")[1])
        except (IndexError, ValueError):
            continue
        try:
            summaries[index] = decode_summary(path.read_bytes())
        except SummaryDecodeError:
            _log.warning("skipping undecodable checkpoint %s", path.name)
    return summaries


# ---------------------------------------------------------------------------
# Orchestrator side: supervision
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class SupervisionPolicy:
    """Knobs for the supervised dispatch loop.

    :param max_attempts: failures a shard absorbs before it is bisected
        (multi-campaign shards) or escalated to a solo-confirmation run
        (singletons).
    :param backoff_base: first-retry delay; doubles per attempt.
    :param backoff_cap: ceiling on the retry delay.
    :param timeout_floor: minimum per-shard deadline — also the whole
        deadline until the first shard completes and calibrates the
        latency estimate.
    :param timeout_factor: deadline multiplier over the observed median
        per-campaign latency (generous on purpose: it must absorb queue
        wait behind the in-flight cap and honest stragglers; only a
        genuinely wedged worker should trip it).
    :param poll_interval: how often the supervisor wakes to scan
        deadlines while futures are outstanding.
    """

    max_attempts: int = 3
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    timeout_floor: float = 60.0
    timeout_factor: float = 8.0
    poll_interval: float = 0.05

    def backoff(self, attempts: int) -> float:
        """Capped exponential delay before attempt *attempts* + 1."""
        return min(
            self.backoff_cap, self.backoff_base * (2 ** max(0, attempts - 1))
        )


@dataclasses.dataclass(frozen=True)
class QuarantinedShard:
    """A campaign the supervisor gave up on, and why."""

    spec: ShardSpec
    attempts: int
    reason: str


@dataclasses.dataclass
class SupervisionStats:
    """What the supervisor had to do during one :meth:`run_specs`."""

    retries: int = 0
    requeued: int = 0
    worker_crashes: int = 0
    timeouts: int = 0
    pool_restarts: int = 0
    decode_failures: int = 0
    bisections: int = 0
    quarantined: list[QuarantinedShard] = dataclasses.field(
        default_factory=list
    )

    @property
    def eventful(self) -> bool:
        return any(
            (
                self.retries,
                self.requeued,
                self.worker_crashes,
                self.timeouts,
                self.pool_restarts,
                self.decode_failures,
                self.bisections,
                self.quarantined,
            )
        )


@dataclasses.dataclass
class _ShardJob:
    """One shard's place in the supervised queue."""

    shard: tuple[ShardSpec, ...]
    attempts: int = 0
    not_before: float = 0.0
    #: Set once a singleton exhausts its attempts: the next run gets the
    #: pool to itself, so a failure is attributable to the campaign and
    #: a success exonerates it (it may have been a crashed neighbour's
    #: victim every time).
    require_solo: bool = False


class FleetRuntime:
    """A persistent, supervised pool of campaign workers.

    Created once per fleet context and reused across any number of
    :meth:`run_specs` calls — the pool (and each worker's initialised
    context) survives between runs, so repeated fleets pay the process
    start-up and context shipping cost once.

    Multi-worker dispatch is supervised by default: per-shard deadlines,
    pool restart on worker death or hang, capped-backoff requeue, and
    bisect-to-quarantine for poison campaigns (see the module
    docstring). The runtime stays usable after any recovery — including
    after :meth:`close` — because the pool is rebuilt on demand.

    :param context: the per-worker campaign context.
    :param workers: pool size. One worker runs every shard inline, in
        the calling process; more dispatch over a process pool.
    :param policy: supervision knobs; None takes the defaults.
    :param on_event: optional callable ``(event, **fields)`` receiving
        supervision events (``worker_crash``, ``shard_retry``,
        ``shard_timeout``, ``shard_quarantined``) — the orchestrator
        wires the telemetry journal in here.
    """

    def __init__(
        self,
        context: FleetContext,
        workers: int,
        policy: SupervisionPolicy | None = None,
        on_event: Callable | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.context = context
        self.workers = workers
        self.policy = policy if policy is not None else SupervisionPolicy()
        self.on_event = on_event
        #: Stats from the most recent :meth:`run_specs` call.
        self.last_supervision: SupervisionStats | None = None
        self._pool = None
        # Dispatch is exclusive: the supervision loop owns the pool
        # (deadlines, restarts). Concurrent run_specs callers — service
        # jobs racing a dispatcher bug — serialise here instead of
        # corrupting each other's in-flight bookkeeping.
        self._dispatch_lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------------------

    def _ensure_pool(self):
        if self._pool is None:
            _log.debug("starting process pool with %d worker(s)", self.workers)
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_worker_init,
                initargs=(self.context,),
            )
        return self._pool

    def _restart_pool(self, stats: SupervisionStats | None = None) -> None:
        """Tear the pool down hard — killing its workers — and forget it.

        The next :meth:`_ensure_pool` builds a fresh one. Used when the
        pool is broken (a worker died) or wedged (a shard blew its
        deadline); queued work is cancelled, and it is the caller's job
        to requeue whatever was in flight.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        if stats is not None:
            stats.pool_restarts += 1
        processes = list((getattr(pool, "_processes", None) or {}).values())
        pool.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            try:
                process.kill()
            except (OSError, ValueError):  # already reaped
                pass

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "FleetRuntime":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- execution -----------------------------------------------------------------

    def run_specs(
        self,
        specs: Sequence[ShardSpec],
        batch: int | None = None,
        supervised: bool = True,
        *,
        context: FleetContext | None = None,
        on_event: Callable | None = None,
        should_abort: Callable[[], bool] | None = None,
    ) -> list["CampaignSummary | None"]:
        """Run *specs* over the pool; summaries come back in spec order.

        A quarantined campaign's slot holds ``None`` (fault-free runs
        never quarantine, so every slot is a summary on the happy
        path); :attr:`last_supervision` carries the diagnostics.

        :param batch: campaigns per worker message. None auto-sizes so
            every worker gets work without starving the tail: roughly
            four shards per worker, minimum one campaign per shard.
        :param supervised: False bypasses the supervision loop for bare
            ``pool.map`` dispatch — no deadlines, no retry, first
            failure propagates. Kept for overhead benchmarking.
        :param context: per-call context override, shipped with every
            shard message instead of relying on the pool-initialised
            context. This is how the control plane runs many jobs —
            each with its own config, corpus namespace and telemetry
            run — on one warm pool. None uses the initialised context.
        :param on_event: per-call supervision-event sink, restored to
            the constructor-time sink when the call returns.
        :param should_abort: polled between dispatch steps; when it
            returns True the call raises :class:`AbortRequested` —
            pending shards are dropped undispatched, in-flight shards
            finish on their workers (and still checkpoint), and the
            pool stays warm for the next call.
        """
        if not specs:
            self.last_supervision = SupervisionStats()
            return []
        if batch is None:
            batch = self.shard_size(len(specs))
        if batch < 1:
            raise ValueError("batch must be >= 1")
        shards = [
            tuple(specs[start : start + batch])
            for start in range(0, len(specs), batch)
        ]
        _log.debug(
            "dispatching %d campaign(s) as %d shard(s) of <=%d",
            len(specs),
            len(shards),
            batch,
        )
        with self._dispatch_lock:
            saved_on_event = self.on_event
            if on_event is not None:
                self.on_event = on_event
            try:
                return self._dispatch(
                    specs, shards, supervised, context, should_abort
                )
            finally:
                self.on_event = saved_on_event

    def _dispatch(
        self,
        specs: Sequence[ShardSpec],
        shards: list[tuple[ShardSpec, ...]],
        supervised: bool,
        context: FleetContext | None,
        should_abort: Callable[[], bool] | None,
    ) -> list["CampaignSummary | None"]:
        stats = SupervisionStats()
        self.last_supervision = stats
        active = context if context is not None else self.context
        if self.workers == 1:
            # Inline: no pool, no serialisation tax, same code path the
            # workers run (summaries included) for identical results.
            # Nothing to supervise — a failure propagates to the caller.
            blobs: list[bytes] = []
            for shard in shards:
                self._check_abort(should_abort, pending=len(shards))
                blobs.extend(run_shard(active, shard))
            return [decode_summary(blob) for blob in blobs]
        if not supervised:
            pool = self._ensure_pool()
            if context is not None:
                shard_results = pool.map(
                    _run_shard, shards, [active] * len(shards)
                )
            else:
                shard_results = pool.map(_run_shard, shards)
            return [
                decode_summary(blob)
                for shard_blobs in shard_results
                for blob in shard_blobs
            ]
        results = self._run_supervised(
            shards, stats, context=context, should_abort=should_abort
        )
        return [results.get(spec[0]) for spec in specs]

    def _check_abort(
        self, should_abort: Callable[[], bool] | None, pending: int
    ) -> None:
        if should_abort is not None and should_abort():
            self._emit("dispatch_abort", pending=pending)
            raise AbortRequested(
                f"fleet dispatch aborted with {pending} shard(s) pending"
            )

    def shard_size(self, spec_count: int) -> int:
        """Auto batch size: ~4 shards per worker, at least 1 campaign."""
        if self.workers == 1:
            return max(1, spec_count)
        return max(1, spec_count // (self.workers * 4) or 1)

    # -- supervised dispatch -------------------------------------------------------

    def _submit(self, job: _ShardJob, context: FleetContext | None = None):
        pool = self._ensure_pool()
        if context is not None:
            return pool.submit(_run_shard, job.shard, context)
        return pool.submit(_run_shard, job.shard)

    def _emit(self, event: str, **fields) -> None:
        _log.info(
            "supervision: %s %s",
            event,
            " ".join(f"{key}={value}" for key, value in fields.items()),
        )
        if self.on_event is not None:
            self.on_event(event, **fields)

    def _run_supervised(
        self,
        shards: list[tuple[ShardSpec, ...]],
        stats: SupervisionStats,
        context: FleetContext | None = None,
        should_abort: Callable[[], bool] | None = None,
    ) -> dict[int, CampaignSummary]:
        """Dispatch *shards* as individual futures under supervision.

        The loop keeps at most ``workers * 2`` shards in flight (so
        deadlines, measured from submission, track execution rather
        than queue depth), polls for completions, and reacts:

        * **success** — decode, record, feed the latency estimator;
        * **decode failure** — the shard ran but returned garbage
          (truncated blob, wrong count): requeue with backoff;
        * **worker exception** — requeue with backoff;
        * **broken pool** (process worker died) — restart the pool,
          requeue the shard that surfaced the break with a bumped
          attempt count, requeue innocent in-flight shards unbumped;
        * **deadline blown** — same as a break, for hangs.

        A shard that exhausts ``max_attempts`` is bisected; a singleton
        is re-run with the pool to itself (``require_solo``) and only
        quarantined if it fails *alone* — otherwise it is exonerated.
        """
        policy = self.policy
        pending: list[_ShardJob] = [_ShardJob(shard) for shard in shards]
        in_flight: dict = {}
        results: dict[int, CampaignSummary] = {}
        latencies: list[float] = []
        max_inflight = self.workers * 2
        solo_active = False

        def deadline_budget(shard_len: int) -> float:
            if not latencies:
                return policy.timeout_floor
            return max(
                policy.timeout_floor,
                policy.timeout_factor * median(latencies) * shard_len,
            )

        def record_success(job: _ShardJob, blobs, wall: float) -> None:
            if len(blobs) != len(job.shard):
                raise SummaryDecodeError(
                    f"shard returned {len(blobs)} summaries "
                    f"for {len(job.shard)} campaign(s)"
                )
            decoded = [decode_summary(blob) for blob in blobs]
            for spec, summary in zip(job.shard, decoded):
                results[spec[0]] = summary
            latencies.append(wall / len(job.shard))

        def quarantine(job: _ShardJob, reason: str) -> None:
            for spec in job.shard:
                stats.quarantined.append(
                    QuarantinedShard(
                        spec=spec, attempts=job.attempts, reason=reason
                    )
                )
                self._emit(
                    "shard_quarantined",
                    specs=[spec[0]],
                    attempts=job.attempts,
                    reason=reason,
                )

        def requeue_failed(job: _ShardJob, reason: str, now: float) -> None:
            """The shard implicated in a failure: bump and re-plan."""
            job.attempts += 1
            stats.retries += 1
            self._emit(
                "shard_retry",
                specs=[spec[0] for spec in job.shard],
                attempts=job.attempts,
                reason=reason,
            )
            if job.require_solo:
                # It had the pool to itself and still failed: the
                # campaign is the poison, not a crashed neighbour.
                quarantine(job, reason)
                return
            if job.attempts >= policy.max_attempts:
                if len(job.shard) > 1:
                    # Bisect: halve the blast radius each round until
                    # the poison campaign stands alone.
                    stats.bisections += 1
                    mid = len(job.shard) // 2
                    pending.append(
                        _ShardJob(job.shard[:mid], not_before=now)
                    )
                    pending.append(
                        _ShardJob(job.shard[mid:], not_before=now)
                    )
                else:
                    job.require_solo = True
                    job.not_before = now + policy.backoff(job.attempts)
                    pending.append(job)
            else:
                job.not_before = now + policy.backoff(job.attempts)
                pending.append(job)

        def requeue_victims(jobs, now: float) -> None:
            """Innocent in-flight shards lost to a restart: no bump."""
            for job in jobs:
                stats.requeued += 1
                job.not_before = now
                pending.append(job)

        while pending or in_flight:
            # Abort drops pending shards undispatched and abandons the
            # in-flight ones — a process-pool task cannot be cancelled,
            # so they run to completion on their workers (writing their
            # checkpoints, which the cancelled job's resume picks up)
            # while the pool stays healthy for the next job.
            self._check_abort(should_abort, pending=len(pending))
            now = time.monotonic()
            while (
                pending and not solo_active and len(in_flight) < max_inflight
            ):
                index = next(
                    (
                        position
                        for position, job in enumerate(pending)
                        if job.not_before <= now
                    ),
                    None,
                )
                if index is None:
                    break
                if pending[index].require_solo and in_flight:
                    # Submission barrier: drain the pool so the solo
                    # run's verdict is attributable.
                    break
                job = pending.pop(index)
                future = self._submit(job, context)
                in_flight[future] = (job, time.monotonic())
                if job.require_solo:
                    solo_active = True
            if not in_flight:
                wake = min(job.not_before for job in pending)
                time.sleep(
                    max(
                        0.001,
                        min(
                            policy.poll_interval, wake - time.monotonic()
                        ),
                    )
                )
                continue
            done, _ = wait(
                tuple(in_flight),
                timeout=policy.poll_interval,
                return_when=FIRST_COMPLETED,
            )
            now = time.monotonic()
            broke: "tuple[_ShardJob, str] | None" = None
            victims: list[_ShardJob] = []
            for future in done:
                job, submitted = in_flight.pop(future)
                if job.require_solo:
                    solo_active = False
                try:
                    blobs = future.result()
                except BrokenExecutor as error:
                    # A dead worker breaks every in-flight future at
                    # once; only the first to surface takes the blame.
                    if broke is None:
                        broke = (
                            job,
                            f"worker process died ({type(error).__name__})",
                        )
                    else:
                        victims.append(job)
                    continue
                except Exception as error:  # noqa: BLE001 — worker raised
                    requeue_failed(
                        job, f"{type(error).__name__}: {error}", now
                    )
                    continue
                try:
                    record_success(job, blobs, now - submitted)
                except SummaryDecodeError as error:
                    stats.decode_failures += 1
                    requeue_failed(
                        job, f"{type(error).__name__}: {error}", now
                    )
            if broke is not None:
                offender, reason = broke
                stats.worker_crashes += 1
                self._emit(
                    "worker_crash",
                    specs=[spec[0] for spec in offender.shard],
                    reason=reason,
                )
                victims.extend(job for job, _ in in_flight.values())
                in_flight.clear()
                solo_active = False
                self._restart_pool(stats)
                requeue_failed(offender, reason, now)
                requeue_victims(victims, now)
                continue
            expired = next(
                (
                    (future, job, submitted)
                    for future, (job, submitted) in in_flight.items()
                    if now - submitted > deadline_budget(len(job.shard))
                ),
                None,
            )
            if expired is not None:
                hung_future, hung, submitted = expired
                stats.timeouts += 1
                reason = (
                    f"shard exceeded its "
                    f"{deadline_budget(len(hung.shard)):.1f}s deadline"
                )
                self._emit(
                    "shard_timeout",
                    specs=[spec[0] for spec in hung.shard],
                    elapsed=round(now - submitted, 3),
                    reason=reason,
                )
                bystanders = [
                    job
                    for future, (job, _) in in_flight.items()
                    if future is not hung_future
                ]
                in_flight.clear()
                solo_active = False
                # The hung worker holds a pool slot hostage — and with
                # a process pool there is no task-level kill. Restart,
                # losing (and requeueing) the innocent in-flight work.
                self._restart_pool(stats)
                requeue_failed(hung, reason, now)
                requeue_victims(bystanders, now)
        return results


def iter_shard_specs(specs: Iterable) -> tuple[ShardSpec, ...]:
    """Flatten :class:`~repro.core.fleet.CampaignSpec` objects to wire tuples."""
    return tuple(
        (spec.index, spec.device_id, spec.strategy, spec.seed, spec.target)
        for spec in specs
    )
