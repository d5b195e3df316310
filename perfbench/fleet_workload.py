"""``fleet``: repeated armed sweeps on one warm two-worker process pool.

Each sweep is a :class:`FleetOrchestrator` over all eight Table V
profiles × two strategies × all four protocol targets (l2cap, rfcomm,
sdp, obex), armed, with a fresh ``fleet_seed`` derived from the
workload seed. It attaches to one shared :class:`FleetRuntime` through
``runtime=`` — the control plane's path — writes back into its own
SQLite corpus namespace (``open_namespace``) and records telemetry.

The same packet path as ``stream`` runs here differently: traces are
retained for the corpus write-back, campaigns end unevenly at injected
bugs, and findings and corpus entries get written. Most of the load
that is not the packet path lands on dispatch, the summary codec, the
merge, the corpus and telemetry, and this is the only workload that
runs the rfcomm, sdp and obex codecs.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import shutil
import time
from pathlib import Path

from common import (
    SUPERVISION_EVENTS,
    Outcome,
    WorkDir,
    derived_seeds,
    median,
    set_efficiency_ratios,
    workload_rss_mb,
)
from yardstick import HostSpeed

WORKERS = 2
STRATEGIES = ("sequential", "targeted")
TARGETS = ("l2cap", "rfcomm", "sdp", "obex")
BUDGET = 200
CAMPAIGNS = 8 * len(STRATEGIES) * len(TARGETS)
SETUP_REPEATS = 5
TRACE_SWEEPS = 3


def start_runtime():
    """Spawn the pool and ship the worker context; returns the runtime.

    One one-packet campaign per worker forces every worker process up
    and initialised before the runtime is handed out.
    """
    from repro.core.config import FuzzConfig
    from repro.core.runtime import FleetContext, FleetRuntime

    runtime = FleetRuntime(
        context=FleetContext(
            base_config=FuzzConfig(max_packets=1),
            armed=False,
            target_state_value="OPEN",
            corpus_dir=None,
            retain_trace=False,
            prior_visits=(),
            dictionary=(),
        ),
        workers=WORKERS,
    )
    runtime.run_specs(
        [(index, "D1", "sequential", index, "l2cap") for index in range(WORKERS)],
        batch=1,
    )
    return runtime


def _setup(repeats: int):
    """Median set-up time over *repeats* pools, normalised to the nominal
    host; returns (seconds, runtime)."""
    samples, runtime, host = [], None, HostSpeed()
    for _ in range(repeats):
        if runtime is not None:
            runtime.close()
        host.sample()
        started = time.perf_counter()
        runtime = start_runtime()
        samples.append(time.perf_counter() - started)
    host.sample()
    return median(samples) / host.factor(), runtime


class SweepResult:
    """What one sweep measured and produced."""

    def __init__(self, report, events, construct, run, dispatch, close, supervision):
        self.digest = hashlib.sha256(report.to_json().encode()).hexdigest()
        self.report = report
        self.events = events
        self.construct_s = construct
        self.run_s = run
        self.dispatch_s = dispatch
        self.close_s = close
        self.supervision = supervision

    @property
    def wall_s(self) -> float:
        return self.construct_s + self.run_s + self.close_s


def sweep(runtime, fleet_seed: int, work: Path, ledger=None) -> SweepResult:
    """One warm sweep (construct → ``run()`` → ``close()``), timed.

    With a *ledger*, the runtime's ``run_specs`` is traced for the
    duration of the sweep, which splits ``run()`` into dispatch and
    merge.
    """
    from repro.core.config import FuzzConfig
    from repro.core.fleet import FleetOrchestrator
    from repro.corpus.backend import namespace_root, open_namespace
    from repro.telemetry import EVENTS_FILENAME, read_events
    from repro.testbed.profiles import ALL_PROFILES

    name = f"sweep-{fleet_seed}"
    open_namespace(work, name).close()
    telemetry = work / f"{name}-runs"
    if ledger is not None:
        ledger.patch(runtime, "run_specs", "runtime.dispatch", kind="span")
    try:
        started = time.perf_counter()
        orchestrator = FleetOrchestrator(
            profiles=ALL_PROFILES,
            strategies=STRATEGIES,
            fleet_seed=fleet_seed,
            workers=WORKERS,
            base_config=FuzzConfig(max_packets=BUDGET),
            armed=True,
            targets=TARGETS,
            corpus_dir=str(namespace_root(work, name)),
            telemetry_dir=str(telemetry),
            runtime=runtime,
        )
        constructed = time.perf_counter()
        report = orchestrator.run()
        ran = time.perf_counter()
        orchestrator.close()
        closed = time.perf_counter()
    finally:
        if ledger is not None:
            ledger.restore()
    dispatch = 0.0
    if ledger is not None:
        dispatch = ledger.span_ns.pop("runtime.dispatch", 0) / 1e9
        ledger.span_calls.pop("runtime.dispatch", None)
    events = read_events(orchestrator.run_dir / EVENTS_FILENAME)
    result = SweepResult(
        report,
        events,
        constructed - started,
        ran - constructed,
        dispatch,
        closed - ran,
        orchestrator.last_supervision,
    )
    shutil.rmtree(telemetry, ignore_errors=True)
    shutil.rmtree(namespace_root(work, name), ignore_errors=True)
    return result


def check(result: SweepResult, outcome: Outcome, fleet_seed: int) -> None:
    """Count the sweep as failed unless its outputs hold together."""
    outcome.attempted += 1
    report = result.report
    ends = [event for event in result.events if event["event"] == "campaign_end"]
    supervision = result.supervision
    problem = None
    if len(report.campaigns) != CAMPAIGNS or report.quarantined:
        problem = f"{len(report.campaigns)} campaigns, {len(report.quarantined)} quarantined"
    elif supervision is None or supervision.eventful:
        problem = f"supervision intervened: {supervision}"
    elif any(event["event"] in SUPERVISION_EVENTS for event in result.events):
        problem = "supervision events in the journal"
    elif len(ends) != CAMPAIGNS:
        problem = f"{len(ends)} campaign_end events"
    elif sum(event["packets_sent"] for event in ends) != report.total_packets:
        problem = "journal packet count disagrees with the merged report"
    elif not report.findings:
        problem = "armed sweep found nothing"
    if problem is not None:
        outcome.fail(f"sweep fleet_seed={fleet_seed}: {problem}")


def campaign_rates(events) -> list[float]:
    """Worker-side packets per wall second of each finished campaign."""
    return [
        event["packets_sent"] / event["wall_seconds"]
        for event in events
        if event["event"] == "campaign_end" and event["wall_seconds"] > 0
    ]


def efficiency_totals(events) -> list[int]:
    """Summed (sent, malformed, received, rejections) over campaigns."""
    totals = [0, 0, 0, 0]
    for event in events:
        if event["event"] == "campaign_end":
            for slot, key in enumerate(("sent", "malformed", "received", "rejections")):
                totals[slot] += event[key]
    return totals


def shard_spans(events) -> tuple[float, float]:
    """(summed shard wall seconds, summed corpus write-back seconds).

    A shard's write-back is the tail between its last ``campaign_end``
    and its ``shard_end``. Each worker runs its shards one after the
    other, so ordering a worker's events by time walks its shards in
    turn.
    """
    busy = writeback = 0.0
    by_worker: dict = {}
    for event in events:
        by_worker.setdefault(event.get("worker"), []).append(event)
    for worker_events in by_worker.values():
        worker_events.sort(key=lambda event: (event["ts"], event["seq"]))
        last_end = None
        for event in worker_events:
            if event["event"] == "campaign_end":
                last_end = event["ts"]
            elif event["event"] == "shard_end":
                busy += event["wall_seconds"]
                if last_end is not None:
                    writeback += event["ts"] - last_end
                last_end = None
    return busy, writeback


_LEDGER_COUNTERS = ("calls", "self_ns", "child_calls")


def start_traced_runtime(ledger, work: Path):
    """A second pool whose workers fork with the packet-path wrappers in.

    The wrappers are installed in this process only while the pool
    forks its workers, then restored; the workers keep them. Each shard
    clears its worker's copy of the ledger first and dumps it to
    *work* when it ends, for :func:`fold_worker_ledgers` to collect.
    """
    from repro.core import runtime as runtime_module
    from stream_workload import install_hot_path

    original = runtime_module.run_shard

    def run_shard(context, shard, in_process_worker=False):
        for counter in (ledger.calls, ledger.self_ns, ledger.child_calls):
            counter.clear()
        try:
            return original(context, shard, in_process_worker)
        finally:
            dump = {name: dict(getattr(ledger, name)) for name in _LEDGER_COUNTERS}
            path = work / f"ledger-{os.getpid()}-{shard[0][0]}.json"
            path.write_text(json.dumps(dump), encoding="utf-8")

    install_hot_path(ledger)
    ledger.replace(runtime_module, "run_shard", run_shard)
    try:
        runtime = start_runtime()
    finally:
        ledger.restore()
    fold_worker_ledgers(work, None)  # drop the warm-up campaigns
    return runtime


def fold_worker_ledgers(work: Path, ledger) -> None:
    """Add the workers' shard dumps into *ledger* (None discards them)."""
    for path in work.glob("ledger-*.json"):
        dump = json.loads(path.read_text(encoding="utf-8"))
        path.unlink()
        if ledger is not None:
            for name in _LEDGER_COUNTERS:
                getattr(ledger, name).update(dump[name])


def run(root: Path, seed: int, seconds: float, trace: bool) -> Outcome:
    from stream_workload import HOT_PATH_LAYERS

    outcome = Outcome()
    seeds = derived_seeds(seed, "fleet")
    setup, runtime = _setup(SETUP_REPEATS)
    traced_runtime = ledger = None
    try:
        with WorkDir(root, "fleet") as work:
            if trace:
                from ledger import Ledger

                ledger = Ledger()
                traced_runtime = start_traced_runtime(ledger, work)
            sweep(runtime, next(seeds), work)  # untimed warm-up
            results, plain, host = [], [], HostSpeed()
            schedule = seeds
            if trace:
                # Whole passes over a fixed handful of sweeps, so the
                # calls-per-packet figures and ratios are exact for a seed.
                schedule = itertools.cycle([next(seeds) for _ in range(TRACE_SWEEPS)])
            deadline = time.perf_counter() + seconds
            while time.perf_counter() < deadline or (trace and len(results) % TRACE_SWEEPS):
                host.sample(2)
                fleet_seed = next(schedule)
                if trace:
                    result = sweep(traced_runtime, fleet_seed, work, ledger)
                    fold_worker_ledgers(work, ledger)
                    # Paired untraced sweep of the same seed: the
                    # tracing overhead, and the on/off digest check.
                    again = sweep(runtime, fleet_seed, work)
                    check(again, outcome, fleet_seed)
                    plain.append(again)
                    if again.digest != result.digest:
                        outcome.fail(f"fleet_seed={fleet_seed}: digest differs traced vs untraced")
                else:
                    with host.stealing():
                        result = sweep(runtime, fleet_seed, work)
                check(result, outcome, fleet_seed)
                results.append((fleet_seed, result))
            rss = workload_rss_mb()
            # Determinism across runs of a seed: the first sweep again.
            first_seed, first = results[0]
            if sweep(runtime, first_seed, work).digest != first.digest:
                outcome.fail(f"fleet_seed={first_seed}: merged report digest changed on repeat")
    finally:
        runtime.close()
        if traced_runtime is not None:
            traced_runtime.close()

    sweeps = [result for _, result in results]
    events = [event for result in sweeps for event in result.events]
    if not trace:
        host.record(
            outcome,
            median(campaign_rates(events)),
            median(result.wall_s for result in sweeps),
        )
        outcome.metric("rss_mb", rss, "MB")
        outcome.metric("setup_s", setup, "s")
        return outcome

    packets = sum(e["packets_sent"] for e in events if e["event"] == "campaign_end")
    for layer in HOT_PATH_LAYERS:
        outcome.metric(
            f"{layer}.self_ns_per_pkt", ledger.corrected_self_ns(layer) / packets, "ns/pkt"
        )
        outcome.metric(f"{layer}.calls_per_pkt", ledger.calls[layer] / packets, "calls/pkt")
    report_fleet_layers(outcome, sweeps)
    busy_fracs, writebacks = [], []
    for result in sweeps:
        busy, writeback = shard_spans(result.events)
        busy_fracs.append(busy / (WORKERS * result.dispatch_s))
        writebacks.append(writeback)
    outcome.metric("runtime.worker_busy_frac", median(busy_fracs), "fraction")
    outcome.metric("corpus.writeback_s", median(writebacks), "s")
    for metric, key in (
        ("corpus.entries_added", "entries_added"),
        ("corpus.findings_new", "findings_new"),
    ):
        outcome.metric(
            metric,
            median(
                sum(e[key] for e in result.events if e["event"] == "corpus_writeback")
                for result in sweeps
            ),
            "count",
        )
    outcome.metric(
        "trace.overhead_frac",
        median(t.wall_s / p.wall_s for t, p in zip(sweeps, plain)) - 1.0,
        "fraction",
    )
    set_efficiency_ratios(outcome, *efficiency_totals(events))
    return outcome


def report_fleet_layers(outcome: Outcome, sweeps) -> None:
    """Orchestrator-side split of the sweeps (medians per sweep)."""
    outcome.metric("fleet.construct_s", median(r.construct_s for r in sweeps), "s")
    outcome.metric("runtime.dispatch_s", median(r.dispatch_s for r in sweeps), "s")
    outcome.metric("fleet.merge_s", median(r.run_s - r.dispatch_s for r in sweeps), "s")
    outcome.metric("telemetry.close_s", median(r.close_s for r in sweeps), "s")
    outcome.metric(
        "runtime.retries",
        sum(r.supervision.retries for r in sweeps if r.supervision is not None),
        "count",
    )
