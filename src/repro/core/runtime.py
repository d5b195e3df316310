"""Persistent fleet execution runtime: batched workers, compact results.

What the paper's throughput-per-dongle argument (Table 7) asks of a
simulated fleet:

* **Persistent workers** — worker processes start once per runtime and
  stay warm across :meth:`FleetRuntime.run_specs` calls. Every shard
  message carries its :class:`FleetContext` next to the bare campaign
  coordinates, so one pool serves fleets with different contexts.
* **Batched shards** — campaigns ship to workers ``batch`` specs per
  message; a shard's campaigns run back to back on one worker, like a
  dongle working through its queue.
* **Compact binary summaries** — workers return :class:`CampaignSummary`
  blobs (``marshal`` of plain tuples behind a versioned, checksummed
  header), the one campaign result from worker to exported report.
* **One writer** — a worker builds each campaign's corpus write-back
  batch as the campaign ends, journals its shard in memory, and returns
  both with the summary blobs. The runtime commits campaigns strictly
  in spec order (:class:`_SpecOrderCommit`): one transaction per ready
  prefix, then that prefix's journal lines, then its checkpoints.
  Workers write none of the three.

Campaigns are pure functions of their derived seed and results are
committed by spec index, so the merged fleet report, and the corpus
database byte for byte, are the same for any worker count and batch
size, and after any recovery or resume; the journal holds each
committed campaign's events once.

One worker runs every shard inline, in the calling process; more
workers run shards over a supervised process pool
(:meth:`FleetRuntime._run_supervised`: deadlines, pool restarts,
requeue with backoff, bisect-to-quarantine).
"""

from __future__ import annotations

import dataclasses
import json
import logging
import marshal
import os
import struct
import sys
import threading
import time
import zlib
from collections.abc import Callable, Sequence
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from pathlib import Path
from statistics import median
from typing import NamedTuple

# Pool workers fork from the process that imports this module, so the
# campaign path they run (FuzzSession and its imports) loads here once,
# not again in every new worker.
from repro.analysis.metrics import MutationEfficiency
from repro.core.config import FuzzConfig
from repro.core.detection import Finding
from repro.core.report import CampaignReport
from repro.core.strategies import make_strategy
from repro.durability import atomic_write, backoff_delay
from repro.errors import ReproError
from repro.faults import FaultPlan
from repro.l2cap.states import ChannelState
from repro.testbed.profiles import PROFILES_BY_ID
from repro.testbed.session import FuzzSession

_log = logging.getLogger(__name__)

#: Format version, the first byte of every encoded summary blob.
#: v2 added the per-finding ``sent_index`` (reproducer-prefix cut); v3
#: replaced the hand-packed body with a framed ``marshal`` one.
SUMMARY_FORMAT_VERSION = 3

#: Summary blob header: format version, the writing interpreter's major
#: and minor version (``marshal`` data is only promised to the same
#: one), body length and the body's CRC-32.
_HEADER = struct.Struct("<BBBII")


@dataclasses.dataclass(frozen=True)
class FindingSummary:
    """One campaign finding, flattened to plain data for the wire.

    The fleet report renders these fields as they are: the class travels
    as its :class:`~repro.core.detection.VulnerabilityClass` value
    string, and a missing crash dump as ``""``.
    """

    vulnerability_class: str
    error_message: str
    state: str
    trigger: str
    sim_time: float
    ping_failed: bool
    crash_dump: str
    target: str
    sent_index: int | None = None

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
    """One campaign's result, as plain data, from worker to report.

    This is the worker→orchestrator wire unit, the checkpoint content
    and what the fleet report renders: nothing rebuilds the
    :class:`~repro.core.report.CampaignReport` it came from. Coverage
    travels as sorted state-name tokens; findings as
    :class:`FindingSummary` rows; the Table VII counters raw, with the
    ratios derived by :attr:`efficiency`. ``coverage_samples`` is the
    sniffer's streamed coverage-unlock series — ``(distinct states,
    packets sent)`` points — so fleet-level coverage-over-time pictures
    never need the trace.
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

    @property
    def efficiency(self) -> MutationEfficiency:
        """The campaign's Table VII metrics, from its raw counters."""
        return MutationEfficiency(
            transmitted=self.transmitted,
            malformed=self.malformed,
            received=self.received,
            rejections=self.rejections,
            elapsed_seconds=self.elapsed_seconds,
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
# Blob codec
# ---------------------------------------------------------------------------

#: Field order of a marshalled summary, and of each finding row in it.
_SUMMARY_FIELDS = tuple(
    field.name for field in dataclasses.fields(CampaignSummary)
)
_FINDING_FIELDS = tuple(
    field.name for field in dataclasses.fields(FindingSummary)
)


def encode_summary(summary: CampaignSummary) -> bytes:
    """Serialise *summary* to one framed, checksummed blob.

    The body is ``marshal.dumps`` of the summary's fields as plain
    tuples, findings as rows too, so decoding needs no campaign
    machinery. The :data:`_HEADER` in front lets :func:`decode_summary`
    refuse a blob of another format or interpreter, or a truncated,
    over-long or bit-flipped one, before ``marshal`` reads it.

    A campaign encodes to the same bytes every time it runs. (``marshal``
    flags objects that something else also references, so a summary
    that went through :func:`decode_summary` may re-encode to other
    bytes that decode to the same summary.)
    """
    fields = {name: getattr(summary, name) for name in _SUMMARY_FIELDS}
    fields["findings"] = tuple(
        tuple(getattr(finding, name) for name in _FINDING_FIELDS)
        for finding in summary.findings
    )
    body = marshal.dumps(tuple(fields.values()))
    return (
        _HEADER.pack(
            SUMMARY_FORMAT_VERSION,
            *sys.version_info[:2],
            len(body),
            zlib.crc32(body),
        )
        + body
    )


class AbortRequested(ReproError):
    """A :meth:`FleetRuntime.run_specs` call stopped on caller request.

    Raised when the caller's ``should_abort`` hook fires mid-dispatch —
    the control plane's cancel path — after the shards already on
    workers finished and the ready prefix of campaigns was committed:
    its checkpoints are the resume trail a cancelled job needs.
    """


class SummaryDecodeError(ReproError, ValueError):
    """A campaign-summary blob that cannot be decoded.

    Raised for truncated, corrupt, or unknown-version blobs — the
    typed signal the supervision layer retries on and the checkpoint
    loader skips (the campaign reads as "missing"). A
    :class:`ValueError` too, for callers that catch that.
    """


def decode_summary(blob: bytes) -> CampaignSummary:
    """Decode one :func:`encode_summary` blob.

    :raises SummaryDecodeError: on an empty, truncated, over-long,
        corrupt, unknown-version or other-interpreter blob.
    """
    if not blob:
        raise SummaryDecodeError("empty campaign-summary blob")
    if blob[0] != SUMMARY_FORMAT_VERSION:
        raise SummaryDecodeError(
            f"unknown campaign-summary format version {blob[0]} "
            f"(expected {SUMMARY_FORMAT_VERSION})"
        )
    if len(blob) < _HEADER.size:
        raise SummaryDecodeError(
            f"truncated campaign-summary header ({len(blob)} bytes)"
        )
    _, major, minor, length, checksum = _HEADER.unpack_from(blob)
    if (major, minor) != sys.version_info[:2]:
        raise SummaryDecodeError(
            f"campaign-summary blob written by Python {major}.{minor}, "
            f"not {sys.version_info.major}.{sys.version_info.minor}"
        )
    end = _HEADER.size + length
    if len(blob) < end:
        raise SummaryDecodeError(
            f"truncated campaign-summary blob ({len(blob)} of {end} bytes)"
        )
    if len(blob) > end:
        raise SummaryDecodeError(
            f"campaign-summary decode consumed {end} of {len(blob)} bytes"
        )
    body = blob[_HEADER.size :]
    if zlib.crc32(body) != checksum:
        raise SummaryDecodeError("campaign-summary blob fails its CRC-32")
    try:
        fields = dict(zip(_SUMMARY_FIELDS, marshal.loads(body), strict=True))
        fields["findings"] = tuple(
            FindingSummary(*row) for row in fields["findings"]
        )
        return CampaignSummary(**fields)
    except (EOFError, ValueError, TypeError) as error:
        raise SummaryDecodeError(
            f"corrupt campaign-summary body: {error}"
        ) from error


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class FleetContext:
    """Everything a worker needs besides the campaign coordinates.

    Shipped with every shard message, so the pool's workers hold no
    campaign state of their own and one warm pool runs any context.
    """

    base_config: FuzzConfig
    armed: bool
    target_state_value: str
    corpus_dir: str | None
    #: Retention for campaigns without a corpus (with one,
    #: :func:`run_shard` keeps the sent capture, all write-back
    #: replays). A bool because it is part of the fleet signature.
    retain_trace: bool
    prior_visits: tuple[tuple[str, int], ...]
    dictionary: tuple[bytes, ...]
    #: Telemetry root directory; None runs the fleet without telemetry
    #: (the default — observation is strictly opt-in).
    telemetry_dir: str | None = None
    #: The fleet run every worker journal line correlates to.
    run_id: str | None = None
    #: Dump a cProfile per worker shard under the run's profiles/ dir.
    profile_workers: bool = False
    #: Deterministic fault injection (chaos runs and recovery tests):
    #: the plan's worker faults fire at this context's ``shard.*``
    #: sites for their campaign indices. None — the production
    #: default — injects nothing.
    fault_plan: FaultPlan | None = None


class CampaignSpec(NamedTuple):
    """One cell of the fleet matrix, as shards ship it to workers.

    A plain tuple, so :meth:`FleetRuntime.run_specs` takes bare
    ``(index, device_id, strategy, seed, target)`` tuples too. *index*
    orders the results and derives *seed*; *strategy* and *target* are
    registry names.
    """

    index: int
    device_id: str
    strategy: str
    seed: int
    target: str = "l2cap"


def _emit_campaign_telemetry(
    journal, index: int, session, summary: CampaignSummary, wall: float
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
    shard: Sequence[CampaignSpec],
    in_process_worker: bool = False,
) -> tuple[list[tuple[bytes, tuple | None]], list[str]]:
    """Run every campaign of *shard* back to back; return its results.

    ``(results, lines)``: one ``(summary blob, write-back batch)`` pair
    per campaign, in shard order, and the shard's encoded journal lines.
    The worker writes neither the corpus, checkpoints nor the journal:
    the runtime commits what it returns (:class:`_SpecOrderCommit`).

    With a corpus, campaigns run on the sent capture
    (``retain_trace="sent"``), and each campaign's write-back batch —
    its entries and shrunk findings, built by
    :func:`repro.corpus.store.campaign_batch` — is built as the
    campaign ends and the session dropped, so a worker holds one
    campaign's capture at a time. Without a corpus the batch is None.

    With telemetry on the context, the shard journals in memory — shard
    spans, per-campaign start/end events with the sniffer/engine
    counters, findings and the bridged Logfile records — each line
    encoded once and returned with the results (``lines`` is empty
    without telemetry): no file, no locks, nothing on the packet hot
    path. A shard whose results are discarded leaves no event behind.
    """
    fault_plan = context.fault_plan
    if fault_plan is not None:
        # Shard-boundary fault injection: planned crashes die and hangs
        # stall *here*, before the shard runs.
        campaigns = {spec[0] for spec in shard}
        fault_plan.fire("shard.start", campaigns, in_process_worker)
    journal = None
    if context.telemetry_dir is not None and context.run_id is not None:
        from repro.telemetry import JournalWriter

        journal = JournalWriter(None, context.run_id, os.getpid())
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
    corpus_dir = context.corpus_dir
    if corpus_dir is not None:
        from repro.analysis.sniffer import SENT_ONLY
        from repro.corpus.store import campaign_batch

        retain_trace = SENT_ONLY
    else:
        retain_trace = context.retain_trace
    summaries: list[CampaignSummary] = []
    batches = []  # one write-back batch per campaign, built as each ends
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
            retain_trace=retain_trace,
            target=target,
        )
        report = session.run()
        summary = summarize_session(session, report)
        if journal is not None:
            _emit_campaign_telemetry(
                journal,
                index,
                session,
                summary,
                time.perf_counter() - campaign_started,
            )
        summaries.append(summary)
        batches.append(
            campaign_batch(profile, session.fuzzer, report, context.armed)
            if corpus_dir is not None
            else None
        )
        # Drop the campaign before the next one is built, so at most
        # one campaign's capture is alive in this worker.
        del session, report
    if corpus_dir is not None and fault_plan is not None:
        # Transient corpus-IO faults strike before the batches leave
        # the worker, so nothing is written and the requeued shard's
        # batches are committed exactly once.
        fault_plan.fire("shard.writeback", campaigns)
    blobs = [encode_summary(summary) for summary in summaries]
    if journal is not None:
        journal.emit(
            "shard_end",
            campaigns=len(shard),
            wall_seconds=round(time.perf_counter() - shard_started, 6),
        )
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
    if fault_plan is not None:
        corrupt = {
            fault.spec_index
            for fault in fault_plan.fire("shard.summary", campaigns)
        }
        blobs = [
            blob[: max(1, len(blob) // 3)] if spec[0] in corrupt else blob
            for spec, blob in zip(shard, blobs)
        ]
    return list(zip(blobs, batches)), [] if journal is None else journal.lines


# ---------------------------------------------------------------------------
# Shard checkpoints
# ---------------------------------------------------------------------------

#: Per-run directory holding one summary blob per completed campaign.
CHECKPOINTS_DIRNAME = "checkpoints"


def _checkpoint_path(run_dir: Path, index: int) -> Path:
    return run_dir / CHECKPOINTS_DIRNAME / f"campaign-{index:06d}.bin"


def write_checkpoints(run_dir: Path, blobs: dict[int, bytes]) -> None:
    """Persist committed campaigns' summary blobs, one file per index.

    Writes are atomic (:func:`~repro.durability.atomic_write`): a
    reader — or a resumed run — sees a whole blob or no file; a process
    killed mid-write leaves at worst a temp file the ``campaign-*.bin``
    glob never matches.
    """
    checkpoint_dir = run_dir / CHECKPOINTS_DIRNAME
    checkpoint_dir.mkdir(parents=True, exist_ok=True)
    for index, blob in blobs.items():
        atomic_write(_checkpoint_path(run_dir, index), blob)


def load_checkpoints(run_dir: Path) -> dict[int, CampaignSummary]:
    """Read every decodable shard checkpoint under *run_dir*.

    Tolerant by design, like the journal's torn-line handling: a
    corrupt checkpoint (a flipped bit on disk) or one written by another
    Python minor version reads as "campaign not done", and the resumed
    run re-executes it.
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
# Orchestrator side: committing results in spec order
# ---------------------------------------------------------------------------


class _SpecOrderCommit:
    """The one writer of a :meth:`FleetRuntime.run_specs` call's results.

    A finished campaign waits until every campaign before it in *specs*
    has arrived or been quarantined; then that ready prefix is committed:
    one ``ingest`` transaction for its write-back batches; its shards'
    journal lines and the ``corpus_writeback`` events, appended to
    *journal*; then its checkpoints. So corpus rows and journal lines
    follow spec order, a checkpoint never exists without its rows and
    events, and a discarded shard attempt leaves nothing behind. A
    shard's campaigns arrive together, so they commit together.

    With a telemetry run the transaction also stores the corpus ``meta``
    row ``committed:<run_id>``, ``{"prefix": n, "skipped": [...]}``:
    every campaign below *n* but the quarantined *skipped* ones has its
    rows in the corpus, so a resume re-runs such a campaign whose
    checkpoint is missing without ingesting it again.
    """

    def __init__(self, context: FleetContext, specs, journal) -> None:
        self._specs, self._journal = list(reversed(specs)), journal
        self._arrived: dict[int, tuple | None] = {}  # None: quarantined
        self._lines: dict[int, list[str]] = {}  # by a shard's first index
        self.summaries: dict[int, CampaignSummary] = {}
        self._run_dir = self._backend = self._key = None
        if context.telemetry_dir is not None and context.run_id is not None:
            self._run_dir = Path(context.telemetry_dir) / context.run_id
        stored = None
        if context.corpus_dir is not None:
            from repro.corpus.backend import open_backend

            self._backend = open_backend(context.corpus_dir)
            if context.run_id is not None:
                self._key = f"committed:{context.run_id}"
                stored = self._backend.read_meta(self._key)
        stored = json.loads(stored or '{"prefix": 0, "skipped": []}')
        self._prefix, self._skipped = stored["prefix"], set(stored["skipped"])

    def add(self, shard: Sequence[CampaignSpec], returned) -> None:
        """Take a shard's :func:`run_shard` return; commit what is ready.

        :raises SummaryDecodeError: taking none, when a result does not
            decode or the count is wrong.
        """
        results, lines = returned
        if len(results) != len(shard):
            raise SummaryDecodeError(
                f"shard returned {len(results)} summaries "
                f"for {len(shard)} campaign(s)"
            )
        decoded = [
            (decode_summary(blob), blob, batch) for blob, batch in results
        ]
        self._arrived.update(zip((spec[0] for spec in shard), decoded))
        self._lines[shard[0][0]] = lines
        self._commit_ready()

    def quarantine(self, spec: CampaignSpec) -> None:
        self._arrived[spec[0]] = None
        self._commit_ready()

    def _commit_ready(self) -> None:
        ready = []
        while self._specs and self._specs[-1][0] in self._arrived:
            index = self._specs.pop()[0]
            ready.append((index, self._arrived.pop(index)))
        if not ready:
            return
        # Rows the corpus lacks: past the stored prefix, or skipped there.
        fresh = [
            (index, result)
            for index, result in ready
            if result and (index >= self._prefix or index in self._skipped)
        ]
        self._skipped -= {index for index, _ in fresh}
        self._skipped |= {
            index
            for index, result in ready
            if not result and index >= self._prefix
        }
        self._prefix = max(self._prefix, ready[-1][0] + 1)
        done = {index: result[:2] for index, result in ready if result}
        counts = []
        if self._backend is not None and (fresh or self._key):
            state = {"prefix": self._prefix, "skipped": sorted(self._skipped)}
            counts = self._backend.ingest(
                [result[2] for _, result in fresh],
                self._key and {self._key: json.dumps(state)},
            )
            for (index, _), stats in zip(fresh, counts):
                summary = dataclasses.replace(
                    done[index][0],
                    **{f"corpus_{key}": count for key, count in stats.items()},
                )
                done[index] = (summary, encode_summary(summary))
        if self._journal is not None:
            self._journal.append(
                [
                    line
                    for index, _ in ready
                    for line in self._lines.pop(index, ())
                ]
            )
            for (index, _), stats in zip(fresh, counts):
                self._journal.emit("corpus_writeback", campaign=index, **stats)
        if self._run_dir is not None and done:
            blobs = {index: blob for index, (_, blob) in done.items()}
            write_checkpoints(self._run_dir, blobs)
        self.summaries.update(
            (index, summary) for index, (summary, _) in done.items()
        )

    def close(self) -> None:
        if self._backend is not None:
            self._backend.close()


# ---------------------------------------------------------------------------
# Orchestrator side: supervision
# ---------------------------------------------------------------------------


#: Failures a shard absorbs before it is bisected (multi-campaign
#: shards) or escalated to a solo-confirmation run (singletons).
MAX_ATTEMPTS = 3
#: First-retry delay, doubling per attempt up to :data:`BACKOFF_CAP`.
BACKOFF_BASE = 0.05
BACKOFF_CAP = 2.0
#: Deadline multiplier over the observed median per-campaign latency
#: (generous on purpose: it must absorb queue wait behind the in-flight
#: cap and honest stragglers; only a wedged worker should trip it).
TIMEOUT_FACTOR = 8.0
#: How often the supervisor wakes to scan deadlines while futures are
#: outstanding.
POLL_INTERVAL = 0.05
#: Default per-shard deadline floor, in seconds — also the whole
#: deadline until the first shard completes and calibrates the latency
#: estimate.
SHARD_TIMEOUT = 60.0


def retry_backoff(attempts: int) -> float:
    """Capped exponential delay before attempt *attempts* + 1."""
    return backoff_delay(attempts - 1, BACKOFF_BASE, BACKOFF_CAP)


@dataclasses.dataclass(frozen=True)
class QuarantinedCampaign:
    """A campaign the supervisor bisected out and gave up on, and why.

    A diagnostic, not an abort: the rest of the fleet merges normally,
    and the fleet report carries these rows as they are recorded here.
    """

    index: int
    device_id: str
    strategy: str
    seed: int
    target: str
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
    quarantined: list[QuarantinedCampaign] = dataclasses.field(
        default_factory=list
    )

    @property
    def eventful(self) -> bool:
        return any(vars(self).values())


@dataclasses.dataclass
class _ShardJob:
    """One shard's place in the supervised queue."""

    shard: tuple[CampaignSpec, ...]
    attempts: int = 0
    not_before: float = 0.0
    #: Set once a singleton exhausts its attempts: the next run gets the
    #: pool to itself, so a failure is attributable to the campaign and
    #: a success exonerates it (it may have been a crashed neighbour's
    #: victim every time).
    require_solo: bool = False


class FleetRuntime:
    """A persistent, supervised pool of campaign workers.

    Reused across any number of :meth:`run_specs` calls — the pool
    survives between runs, so repeated fleets pay the process start-up
    cost once, whatever context each call runs.

    Multi-worker dispatch is supervised: per-shard deadlines,
    pool restart on worker death or hang, capped-backoff requeue, and
    bisect-to-quarantine for poison campaigns (see the module
    docstring). The runtime stays usable after any recovery — including
    after :meth:`close` — because the pool is rebuilt on demand.

    :param context: the campaign context of a :meth:`run_specs` call
        that passes none.
    :param workers: pool size. One worker runs every shard inline, in
        the calling process; more dispatch over a process pool.
    :param shard_timeout: per-shard deadline floor in seconds.
    """

    def __init__(
        self,
        context: FleetContext | None = None,
        workers: int = 1,
        shard_timeout: float = SHARD_TIMEOUT,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.context = context
        self.workers = workers
        self.shard_timeout = shard_timeout
        #: Stats from the most recent :meth:`run_specs` call.
        self.last_supervision: SupervisionStats | None = None
        #: The journal of the :meth:`run_specs` call in progress.
        self._journal = None
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
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
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
        specs: Sequence[CampaignSpec],
        batch: int | None = None,
        *,
        context: FleetContext | None = None,
        journal=None,
        should_abort: Callable[[], bool] | None = None,
    ) -> list["CampaignSummary | None"]:
        """Run *specs* over the pool; summaries come back in spec order.

        A quarantined campaign's slot holds ``None`` (fault-free runs
        never quarantine, so every slot is a summary on the happy
        path); :attr:`last_supervision` carries the diagnostics.

        :param batch: campaigns per worker message. None auto-sizes so
            every worker gets work without starving the tail: roughly
            four shards per worker, minimum one campaign per shard.
        :param context: the campaign context, shipped with every shard
            message — how the control plane runs many jobs, each with
            its own config, corpus namespace and telemetry run, on one
            warm pool. None uses the constructor's context.
        :param journal: the run's journal, the
            :class:`~repro.telemetry.RunRecorder` the orchestrator wires
            in, or None. It gets one ``shard_dispatch`` event (spec
            indices and ``device/target/strategy`` labels) per shard
            handed to a worker or run inline, the supervision events
            (``worker_crash``, ``shard_retry``, ``shard_timeout``,
            ``shard_quarantined``, ``dispatch_abort``) through ``emit``,
            and, as campaigns commit, their shards' worker lines through
            ``append`` and the ``corpus_writeback`` events.
        :param should_abort: polled before each shard is dispatched;
            when it returns True the call raises
            :class:`AbortRequested` — pending shards are dropped
            undispatched, the call waits for the in-flight shards and
            commits the ready prefix first, and the pool stays warm for
            the next call.
        :raises ValueError: when neither this call nor the constructor
            gives a context.
        """
        context = self.context if context is None else context
        if context is None:
            raise ValueError(
                "run_specs needs a context: pass one or construct the "
                "runtime with a default"
            )
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
            stats = self.last_supervision = SupervisionStats()
            commit = _SpecOrderCommit(context, specs, journal)
            self._journal = journal
            try:
                if self.workers == 1:
                    # Inline: no pool, no serialisation tax, the code
                    # path the workers run. A failure propagates.
                    for done, shard in enumerate(shards):
                        aborted = self._abort(should_abort, len(shards) - done)
                        if aborted is not None:
                            raise aborted
                        self._dispatched(shard)
                        commit.add(shard, run_shard(context, shard))
                else:
                    self._run_supervised(
                        shards, stats, context, should_abort, commit
                    )
            finally:
                commit.close()
                self._journal = None
        return [commit.summaries.get(spec[0]) for spec in specs]

    def _abort(
        self, should_abort: Callable[[], bool] | None, pending: int
    ) -> AbortRequested | None:
        """The abort to raise once in-flight work is committed, if asked."""
        if should_abort is None or not should_abort():
            return None
        self._emit("dispatch_abort", pending=pending)
        return AbortRequested(
            f"fleet dispatch aborted with {pending} shard(s) pending"
        )

    def shard_size(self, spec_count: int) -> int:
        """Auto batch size: ~4 shards per worker, at least 1 campaign.

        One worker gets several shards too, so an abort check runs
        between them and each finished shard's campaigns are committed
        and checkpointed.
        """
        return max(1, spec_count // (self.workers * 4))

    # -- supervised dispatch -------------------------------------------------------

    def _emit(self, event: str, **fields) -> None:
        _log.info(
            "supervision: %s %s",
            event,
            " ".join(f"{key}={value}" for key, value in fields.items()),
        )
        if self._journal is not None:
            self._journal.emit(event, **fields)

    def _dispatched(self, shard: Sequence[CampaignSpec]) -> None:
        """Journal that *shard* went to a worker (``run_status`` shows
        its campaigns in flight until they commit)."""
        if self._journal is not None:
            self._journal.emit(
                "shard_dispatch",
                specs=[spec[0] for spec in shard],
                labels=[
                    f"{device}/{target}/{strategy}"
                    for _, device, strategy, _, target in shard
                ],
            )

    def _run_supervised(
        self,
        shards: list[tuple[CampaignSpec, ...]],
        stats: SupervisionStats,
        context: FleetContext,
        should_abort: Callable[[], bool] | None,
        commit: _SpecOrderCommit,
    ) -> None:
        """Dispatch *shards* as individual futures under supervision.

        The loop keeps at most ``workers * 2`` shards in flight (so
        deadlines, measured from submission, track execution rather
        than queue depth), polls for completions, and reacts:

        * **success** — decode, hand to *commit*, feed the latency
          estimator;
        * **decode failure** — the shard ran but returned garbage
          (truncated blob, wrong count): requeue with backoff;
        * **worker exception** — requeue with backoff;
        * **broken pool** (process worker died) — restart the pool,
          requeue the shard that surfaced the break with a bumped
          attempt count, requeue innocent in-flight shards unbumped; a
          pool found broken at submit with nothing in flight (a worker
          died idle, perhaps between calls) is restarted with no shard
          blamed;
        * **deadline blown** — same as a break, for hangs.

        A shard that exhausts :data:`MAX_ATTEMPTS` is bisected; a singleton
        is re-run with the pool to itself (``require_solo``) and only
        quarantined if it fails *alone* — otherwise it is exonerated.

        An abort drops the pending shards, lets the in-flight ones finish
        (a failed one is dropped too, not retried), and raises once they
        are committed.
        """
        pending: list[_ShardJob] = [_ShardJob(shard) for shard in shards]
        in_flight: dict = {}
        latencies: list[float] = []
        max_inflight = self.workers * 2
        solo_active = False
        aborted: AbortRequested | None = None

        def deadline_budget(shard_len: int) -> float:
            if not latencies:
                return self.shard_timeout
            return max(
                self.shard_timeout,
                TIMEOUT_FACTOR * median(latencies) * shard_len,
            )

        def quarantine(job: _ShardJob, reason: str) -> None:
            for spec in job.shard:
                stats.quarantined.append(
                    QuarantinedCampaign(
                        *spec, attempts=job.attempts, reason=reason
                    )
                )
                self._emit(
                    "shard_quarantined",
                    specs=[spec[0]],
                    attempts=job.attempts,
                    reason=reason,
                )
                commit.quarantine(spec)

        def requeue_failed(job: _ShardJob, reason: str, now: float) -> None:
            """The shard implicated in a failure: bump and re-plan."""
            if aborted is not None:
                return  # dropped, like the pending shards
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
            if job.attempts >= MAX_ATTEMPTS and len(job.shard) > 1:
                # Bisect: halve the blast radius each round until the
                # poison campaign stands alone.
                stats.bisections += 1
                mid = len(job.shard) // 2
                pending.append(_ShardJob(job.shard[:mid], not_before=now))
                pending.append(_ShardJob(job.shard[mid:], not_before=now))
                return
            # A singleton out of attempts gets one solo confirmation run.
            job.require_solo = job.attempts >= MAX_ATTEMPTS
            job.not_before = now + retry_backoff(job.attempts)
            pending.append(job)

        def restart(offender: _ShardJob, reason: str, now: float, victims):
            """Restart the pool: retry *offender*, and requeue the other
            in-flight shards it took down with it, unbumped."""
            nonlocal solo_active
            victims += [
                job for job, _ in in_flight.values() if job is not offender
            ]
            in_flight.clear()
            solo_active = False
            self._restart_pool(stats)
            requeue_failed(offender, reason, now)
            if aborted is None:
                for job in victims:
                    stats.requeued += 1
                    job.not_before = now
                    pending.append(job)

        while pending or in_flight:
            # Abort drops pending shards undispatched. A process-pool
            # task cannot be cancelled, so the in-flight ones run to
            # completion and are committed (their checkpoints are the
            # cancelled job's resume trail) before the abort is raised.
            if aborted is None:
                aborted = self._abort(should_abort, len(pending))
                if aborted is not None:
                    pending.clear()
                    continue
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
                try:
                    future = self._ensure_pool().submit(
                        run_shard, context, job.shard, True
                    )
                except BrokenExecutor as error:
                    # Broken before this shard reached it: no bump. The
                    # next wait blames an in-flight shard, if any.
                    pending.insert(index, job)
                    if in_flight:
                        break
                    stats.worker_crashes += 1
                    self._emit(
                        "worker_crash",
                        specs=[],
                        reason=f"idle worker died ({type(error).__name__})",
                    )
                    self._restart_pool(stats)
                    continue
                in_flight[future] = (job, time.monotonic())
                self._dispatched(job.shard)
                if job.require_solo:
                    solo_active = True
            if not in_flight:
                wake = min(job.not_before for job in pending)
                time.sleep(
                    max(0.001, min(POLL_INTERVAL, wake - time.monotonic()))
                )
                continue
            done, _ = wait(
                tuple(in_flight),
                timeout=POLL_INTERVAL,
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
                    commit.add(job.shard, blobs)
                    latencies.append((now - submitted) / len(job.shard))
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
                restart(offender, reason, now, victims)
                continue
            expired = next(
                (
                    (job, submitted)
                    for job, submitted in in_flight.values()
                    if now - submitted > deadline_budget(len(job.shard))
                ),
                None,
            )
            if expired is not None:
                hung, submitted = expired
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
                # The hung worker holds a pool slot hostage — and with
                # a process pool there is no task-level kill. Restart,
                # losing (and requeueing) the innocent in-flight work.
                restart(hung, reason, now, [])
        if aborted is not None:
            raise aborted
