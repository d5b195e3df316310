"""Fleet campaigns: many targets × strategies × protocols, one report.

The paper runs one fuzzer against one device at a time (Table VI is
eight separate sessions). Production fuzzing wants a *fleet*: every
testbed profile crossed with every exploration strategy and every
protocol fuzz target, campaigns dispatched onto a pool of workers, and
the results merged into one deduplicated picture of what the sweep
found and which states it reached — per protocol.

Determinism is the design anchor. Each campaign's seed is derived from
the fleet seed and the campaign's index with SHA-256, so

* the same fleet seed always produces the same per-campaign seeds
  (and therefore byte-identical merged reports), and
* campaigns never share a seed, no matter how large the fleet.

Campaigns are dispatched onto the persistent batched runtime of
:mod:`repro.core.runtime`: long-lived worker processes consume shards
of campaign coordinates, each shipped with the fleet's context, and
stream back compact binary summaries. The merge and every export of
the report read those summaries' plain fields, paired with each
campaign's :class:`~repro.core.runtime.CampaignSpec`. Because every
campaign owns its simulated clock, results are independent of worker
count, batch size and completion order. Workers rebuild every
campaign from the testbed and strategy registries, so a fleet takes
registry profiles and strategy names only — anything else is refused
at construction. Scaling is *measured* in simulated wall-clock: each
campaign occupies one worker (one dongle, in the paper's setup) for its
simulated duration, and the fleet makespan is the greedy least-loaded
schedule of those durations over the pool.

Findings are deduplicated with the shared
:func:`~repro.core.detection.finding_key`, which carries the fuzz
target's name — so an RFCOMM crash and an L2CAP crash never collapse,
while the same protocol bug hit via two strategies or two devices of
one vendor does.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import logging
import time
from collections.abc import Callable, Sequence
from pathlib import Path

from repro.core.config import FleetSpec, FuzzConfig
from repro.core.report import format_elapsed
from repro.core.runtime import (
    SHARD_TIMEOUT,
    CampaignSpec,
    CampaignSummary,
    FleetContext,
    FleetRuntime,
    QuarantinedCampaign,
    SupervisionStats,
    load_checkpoints,
)
from repro.durability import atomic_write
from repro.faults import FaultPlan
from repro.l2cap.states import ChannelState
from repro.testbed.profiles import PROFILES_BY_ID, DeviceProfile

_log = logging.getLogger(__name__)

#: Per-run snapshot of the corpus-derived campaign inputs (visit prior,
#: splice dictionary), so a resumed run re-seeds campaigns identically
#: even after the corpus absorbed part of the interrupted run.
CONTEXT_SNAPSHOT_FILENAME = "fleet_context.json"


def derive_campaign_seed(fleet_seed: int, index: int) -> int:
    """Derive campaign *index*'s seed from the fleet seed.

    A 64-bit slice of ``SHA-256(fleet_seed ":" index)``: deterministic,
    well-mixed, and collision-free across any realistic fleet size.
    """
    digest = hashlib.sha256(f"{fleet_seed}:{index}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


def simulated_makespan(durations: Sequence[float], workers: int) -> float:
    """Makespan of a greedy least-loaded schedule over *workers* workers.

    Campaigns are assigned in order to the worker with the least
    accumulated simulated time — the dispatch order a work-stealing pool
    converges to when every campaign is known up front.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    loads = [0.0] * workers
    for duration in durations:
        loads[loads.index(min(loads))] += duration
    return max(loads) if loads else 0.0


@dataclasses.dataclass(frozen=True)
class FleetFinding:
    """One deduplicated finding across the fleet.

    Findings are considered the same vulnerability when they share
    ``(target, vendor, vulnerability_class, trigger)`` — the same
    malformed packet knocking over the same protocol layer of the same
    vendor stack the same way, regardless of which device or strategy
    hit it first.

    :param occurrences: how many campaign findings collapsed into this.
    """

    target: str
    vendor: str
    vulnerability_class: str
    trigger: str
    device_id: str
    strategy: str
    state: str
    error_message: str
    sim_time: float
    occurrences: int


@dataclasses.dataclass(frozen=True)
class FleetReport:
    """Merged result of one fleet run.

    :param fleet_seed: the seed every campaign seed derives from.
    :param workers: worker-pool size the fleet was scheduled onto.
    :param campaigns: every completed campaign as a ``(spec, summary)``
        pair, in spec order.
    :param findings: deduplicated findings, in first-detection order.
    :param coverage_map: per-(target, state) campaign counts — how many
        campaigns demonstrably drove their device into each state of
        each protocol's model.
    :param state_spaces: per-target coverage denominators.
    :param simulated_makespan_seconds: fleet duration in simulated time
        under the greedy schedule over *workers* workers.
    :param quarantined: campaigns the supervisor quarantined instead of
        completing — empty on every healthy run, so its presence never
        perturbs report byte-identity.
    """

    fleet_seed: int
    workers: int
    campaigns: tuple[tuple[CampaignSpec, CampaignSummary], ...]
    findings: tuple[FleetFinding, ...]
    coverage_map: tuple[tuple[str, str, int], ...]
    state_spaces: tuple[tuple[str, int], ...]
    simulated_makespan_seconds: float
    quarantined: tuple[QuarantinedCampaign, ...] = ()

    # -- derived ------------------------------------------------------------------

    @property
    def targets(self) -> tuple[str, ...]:
        """Every fuzz target the fleet ran, in coverage-map order."""
        seen: dict[str, None] = {}
        for target, _ in self.state_spaces:
            seen.setdefault(target, None)
        return tuple(seen)

    def coverage_by_target(self) -> dict[str, tuple[tuple[str, int], ...]]:
        """The merged coverage map, split per fuzz target."""
        grouped: dict[str, list[tuple[str, int]]] = {}
        for target, state, count in self.coverage_map:
            grouped.setdefault(target, []).append((state, count))
        return {target: tuple(rows) for target, rows in grouped.items()}

    @property
    def merged_state_count(self) -> int:
        """Distinct (target, state) pairs covered by the fleet."""
        return len(self.coverage_map)

    @property
    def best_single_coverage(self) -> int:
        """Largest per-campaign distinct-state count in the fleet."""
        return max(
            (len(summary.covered_states) for _, summary in self.campaigns),
            default=0,
        )

    @property
    def total_packets(self) -> int:
        """Packets transmitted by the whole fleet."""
        return sum(summary.packets_sent for _, summary in self.campaigns)

    @property
    def campaigns_per_simulated_second(self) -> float:
        """Fleet throughput in campaigns per simulated second."""
        if self.simulated_makespan_seconds <= 0:
            return 0.0
        return len(self.campaigns) / self.simulated_makespan_seconds

    def strategy_table(self) -> list[dict]:
        """Per-strategy efficiency rows, in first-appearance order."""
        grouped: dict[str, list[tuple[CampaignSpec, CampaignSummary]]] = {}
        for spec, summary in self.campaigns:
            grouped.setdefault(spec.strategy, []).append((spec, summary))
        rows = []
        for name, runs in grouped.items():
            covered = {
                (spec.target, state)
                for spec, summary in runs
                for state in summary.covered_states
            }
            summaries = [summary for _, summary in runs]
            packets = sum(summary.packets_sent for summary in summaries)
            elapsed = sum(summary.elapsed_seconds for summary in summaries)
            findings = sum(len(summary.findings) for summary in summaries)
            efficiency = sum(
                summary.efficiency.mutation_efficiency for summary in summaries
            ) / len(runs)
            rows.append(
                {
                    "strategy": name,
                    "campaigns": len(runs),
                    "packets": packets,
                    "findings": findings,
                    "states_covered": len(covered),
                    "mean_mutation_efficiency": round(100.0 * efficiency, 2),
                    "simulated_seconds": round(elapsed, 2),
                }
            )
        return rows

    # -- rendering ----------------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-data rendering (stable field order, JSON-safe types)."""
        return {
            "fleet_seed": self.fleet_seed,
            "workers": self.workers,
            "campaign_count": len(self.campaigns),
            "total_packets": self.total_packets,
            "simulated_makespan_seconds": round(
                self.simulated_makespan_seconds, 6
            ),
            "campaigns_per_simulated_second": round(
                self.campaigns_per_simulated_second, 6
            ),
            "targets": list(self.targets),
            "merged_state_count": self.merged_state_count,
            "best_single_coverage": self.best_single_coverage,
            "coverage_map": [
                {"target": target, "state": state, "campaigns": count}
                for target, state, count in self.coverage_map
            ],
            "state_spaces": {target: space for target, space in self.state_spaces},
            "findings": [dataclasses.asdict(finding) for finding in self.findings],
            "quarantined": [
                dataclasses.asdict(campaign) for campaign in self.quarantined
            ],
            "strategy_table": self.strategy_table(),
            "campaigns": [
                _campaign_dict(spec, summary)
                for spec, summary in self.campaigns
            ],
        }

    def to_json(self, indent: int | None = 2) -> str:
        """Deterministic JSON rendering (safe to diff byte-for-byte)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def to_markdown(self) -> str:
        """Human-readable fleet summary."""
        spaces = dict(self.state_spaces)
        coverage = self.coverage_by_target()
        lines = [
            f"# Fleet report (seed {self.fleet_seed}, {self.workers} worker(s))",
            "",
            f"- campaigns: {len(self.campaigns)}",
            f"- packets sent: {self.total_packets}",
            f"- simulated makespan: "
            f"{format_elapsed(self.simulated_makespan_seconds)}"
            f" ({self.campaigns_per_simulated_second:.4f} campaigns/s simulated)",
            "- merged state coverage: "
            + ", ".join(
                f"{target} {len(coverage.get(target, ()))}/{spaces[target]}"
                for target in self.targets
            )
            + f" (best single campaign: {self.best_single_coverage})",
            "",
            "## Campaigns",
            "",
            "| # | device | protocol | strategy | packets | states |"
            " findings | elapsed |",
            "|---|--------|----------|----------|---------|--------|"
            "----------|---------|",
        ]
        for spec, summary in self.campaigns:
            lines.append(
                f"| {spec.index} | {summary.target_name} |"
                f" {spec.target} |"
                f" {spec.strategy} | {summary.packets_sent} |"
                f" {len(summary.covered_states)} | {len(summary.findings)} |"
                f" {format_elapsed(summary.elapsed_seconds)} |"
            )
        for target in self.targets:
            lines += [
                "",
                f"## Merged coverage map — {target}"
                f" ({len(coverage.get(target, ()))}/{spaces[target]})",
                "",
                "| state | campaigns covering |",
                "|-------|--------------------|",
            ]
            for state, count in coverage.get(target, ()):
                lines.append(f"| {state} | {count} |")
        lines += [
            "",
            "## Findings (deduplicated)",
            "",
        ]
        if not self.findings:
            lines.append("No vulnerability detected across the fleet.")
        else:
            lines += [
                "| protocol | vendor | class | state | first seen | hits |"
                " trigger |",
                "|----------|--------|-------|-------|------------|------|"
                "---------|",
            ]
            for finding in self.findings:
                lines.append(
                    f"| {finding.target} |"
                    f" {finding.vendor} | {finding.vulnerability_class} |"
                    f" {finding.state} |"
                    f" {finding.device_id}/{finding.strategy} |"
                    f" {finding.occurrences} | {finding.trigger} |"
                )
        if self.quarantined:
            lines += [
                "",
                "## Quarantined campaigns",
                "",
                "| # | device | protocol | strategy | attempts | reason |",
                "|---|--------|----------|----------|----------|--------|",
            ]
            for campaign in self.quarantined:
                lines.append(
                    f"| {campaign.index} | {campaign.device_id} |"
                    f" {campaign.target} | {campaign.strategy} |"
                    f" {campaign.attempts} | {campaign.reason} |"
                )
        lines += [
            "",
            "## Per-strategy efficiency",
            "",
            "| strategy | campaigns | packets | findings | states |"
            " mean eff % | sim s |",
            "|----------|-----------|---------|----------|--------|"
            "------------|-------|",
        ]
        for row in self.strategy_table():
            lines.append(
                f"| {row['strategy']} | {row['campaigns']} | {row['packets']} |"
                f" {row['findings']} | {row['states_covered']} |"
                f" {row['mean_mutation_efficiency']} |"
                f" {row['simulated_seconds']} |"
            )
        return "\n".join(lines)


def _campaign_dict(spec: CampaignSpec, summary: CampaignSummary) -> dict:
    return {
        "index": spec.index,
        "device_id": spec.device_id,
        "strategy": spec.strategy,
        "target": spec.target,
        "seed": spec.seed,
        "target_name": summary.target_name,
        "packets_sent": summary.packets_sent,
        "sweeps_completed": summary.sweeps_completed,
        "elapsed_seconds": round(summary.elapsed_seconds, 6),
        "covered_states": list(summary.covered_states),
        "state_visits": [list(pair) for pair in summary.state_visits],
        "transition_visits": [
            list(triple) for triple in summary.transition_visits
        ],
        "findings": [
            {
                "class": finding.vulnerability_class,
                "error": finding.error_message,
                "state": finding.state,
                "trigger": finding.trigger,
                "sim_time": round(finding.sim_time, 6),
            }
            for finding in summary.findings
        ],
        "mutation_efficiency": round(
            100.0 * summary.efficiency.mutation_efficiency, 4
        ),
    }


def merge_reports(
    runs: Sequence[tuple[CampaignSpec, CampaignSummary]],
    profiles_by_id: dict[str, DeviceProfile],
    fleet_seed: int,
    workers: int,
    *,
    quarantined: Sequence[QuarantinedCampaign] = (),
) -> FleetReport:
    """Merge ``(spec, summary)`` pairs into one :class:`FleetReport`.

    Findings are deduplicated by the shared ``finding_key`` —
    ``(target, vendor, vulnerability_class, trigger)`` — keeping the
    first detection and counting the rest. Coverage is merged per
    (target, state) pair so protocols never pollute each other's maps.
    """
    coverage_counts: dict[tuple[str, str], int] = {}
    state_spaces: dict[str, int] = {}
    durations: list[float] = []
    # Insertion order = first-detection order (dicts preserve it).
    deduped: dict[tuple[str, str, str, str], FleetFinding] = {}
    for spec, summary in runs:
        target = spec.target
        state_spaces.setdefault(target, summary.state_space)
        durations.append(summary.elapsed_seconds)
        for token in summary.covered_states:
            key = (target, token)
            coverage_counts[key] = coverage_counts.get(key, 0) + 1
        vendor = profiles_by_id[spec.device_id].vendor
        for finding in summary.findings:
            # The shared finding_key, spelled on plain data: the class
            # value string is what finding_key normalises enums to.
            key = (
                finding.target,
                vendor,
                finding.vulnerability_class,
                finding.trigger,
            )
            seen = deduped.get(key)
            if seen is None:
                deduped[key] = FleetFinding(
                    target=finding.target,
                    vendor=vendor,
                    vulnerability_class=finding.vulnerability_class,
                    trigger=finding.trigger,
                    device_id=spec.device_id,
                    strategy=spec.strategy,
                    state=finding.state,
                    error_message=finding.error_message,
                    sim_time=finding.sim_time,
                    occurrences=1,
                )
            else:
                deduped[key] = dataclasses.replace(
                    seen, occurrences=seen.occurrences + 1
                )

    return FleetReport(
        fleet_seed=fleet_seed,
        workers=workers,
        campaigns=tuple(runs),
        findings=tuple(deduped.values()),
        coverage_map=tuple(
            (target, state, count)
            for (target, state), count in sorted(coverage_counts.items())
        ),
        state_spaces=tuple(sorted(state_spaces.items())),
        simulated_makespan_seconds=simulated_makespan(durations, workers),
        quarantined=tuple(quarantined),
    )


class FleetOrchestrator:
    """Runs the profile × strategy × target matrix and merges the results.

    *profiles* (registry entries from
    :data:`~repro.testbed.profiles.PROFILES_BY_ID`), *strategies*,
    *targets*, *fleet_seed*, *armed*, *target_state*, *batch* and
    *base_config* (a template each campaign copies with its derived
    seed; its ``max_packets`` is the budget) are the fleet job, the
    fields of :class:`~repro.core.config.FleetSpec` in object form —
    :meth:`from_spec` builds the orchestrator from a spec. The other
    parameters say how and where it runs:

    :param workers: worker-pool size for dispatch and for the simulated
        schedule.
    :param corpus_dir: shared corpus directory. When set, every campaign
        writes its coverage-unlock sequences and minimised findings back
        (one transaction per shard, safe under parallel workers), the
        ``coverage_guided`` strategy is seeded with the corpus's
        per-state visit prior, and the mutator splices garbage tails
        harvested from stored reproducers. Entries are content-addressed,
        so a re-run campaign adds none twice; its findings are counted
        again. A shard whose write committed but whose checkpoints were
        not written (a worker killed between the two) is re-run on
        resume, so the report and the entries match an uninterrupted
        run while those findings' ``occurrences`` may be doubled.
    :param telemetry_dir: telemetry root directory. When set, the fleet
        records a run under ``<telemetry_dir>/<run_id>/`` — structured
        event journal (per-worker segments merged at run boundaries),
        metrics registry with JSON + Prometheus exposition, and a run
        manifest ``repro runs`` can list/tail. None (the default) runs
        without any telemetry — observation is strictly opt-in and
        never perturbs execution.
    :param profile_workers: dump a cProfile per worker shard under the
        run's ``profiles/`` directory (requires *telemetry_dir*).
    :param fault_plan: deterministic fault injection
        (:class:`~repro.faults.FaultPlan`) shipped to the workers —
        chaos runs and recovery tests only.
    :param resume_run_id: resume an interrupted telemetry run: its
        shard checkpoints are loaded, only the missing campaigns are
        dispatched, and the merged report is byte-identical to the
        uninterrupted run (requires *telemetry_dir*; the fleet must
        match the original run's recorded signature).
    :param shard_timeout: per-shard deadline floor in seconds for the
        runtime this fleet builds.
    :param runtime: attach to an externally owned, already-warm
        :class:`~repro.core.runtime.FleetRuntime` instead of building a
        private one — the control plane's path, where one shared pool
        serves every job. The orchestrator never closes the runtime,
        and the runtime's own *shard_timeout* governs (the one here is
        ignored). *workers* must match the runtime's pool size
        (``workers`` is recorded in the merged report, so a job must be
        attributed to the pool that actually ran it).
    :param abort_check: polled between dispatch steps; when it returns
        True the run raises
        :class:`~repro.core.runtime.AbortRequested` after recording the
        failure on the manifest — completed shards keep their
        checkpoints, so the aborted run is resumable.
    :raises ValueError: at construction — before any telemetry run
        directory exists — for a fleet
        :meth:`~repro.core.config.FleetSpec.validate` refuses (a
        :class:`~repro.core.config.FleetSpecError`) or a profile that
        is not its registry entry.
    """

    @classmethod
    def from_spec(cls, spec: FleetSpec, **deployment) -> "FleetOrchestrator":
        """Build the orchestrator that runs *spec*.

        The one mapping from a fleet job to an orchestrator: ``repro
        fleet`` and the control plane both come here. *deployment*
        carries the keyword arguments the spec does not describe —
        workers, corpus, telemetry, resume, runtime, fault plan.

        :raises FleetSpecError: for a bad spec, before anything is built.
        """
        spec.validate()
        return cls(
            profiles=[PROFILES_BY_ID[device_id] for device_id in spec.profiles],
            strategies=spec.strategies,
            fleet_seed=spec.seed,
            base_config=FuzzConfig(max_packets=spec.budget),
            armed=spec.armed,
            target_state=ChannelState(spec.target_state),
            targets=spec.targets,
            batch=spec.batch,
            **deployment,
        )

    def __init__(
        self,
        profiles: Sequence[DeviceProfile],
        strategies: Sequence[str],
        fleet_seed: int = 7,
        workers: int = 1,
        base_config: FuzzConfig | None = None,
        armed: bool = True,
        target_state: ChannelState = ChannelState.OPEN,
        corpus_dir: str | None = None,
        targets: Sequence[str] = ("l2cap",),
        batch: int | None = None,
        telemetry_dir: str | None = None,
        profile_workers: bool = False,
        fault_plan: FaultPlan | None = None,
        resume_run_id: str | None = None,
        shard_timeout: float = SHARD_TIMEOUT,
        runtime: FleetRuntime | None = None,
        abort_check: Callable[[], bool] | None = None,
    ) -> None:
        self.base_config = (
            base_config if base_config is not None else FuzzConfig()
        )
        FleetSpec(
            profiles=tuple(profile.device_id for profile in profiles),
            strategies=tuple(strategies),
            targets=tuple(targets),
            budget=self.base_config.max_packets,
            seed=fleet_seed,
            armed=armed,
            target_state=target_state.value,
            batch=batch,
        ).validate()
        # Workers rebuild each campaign from the registries, so only
        # registry inputs can ship to them.
        for profile in profiles:
            if PROFILES_BY_ID[profile.device_id] is not profile:
                raise ValueError(
                    f"profile {profile.device_id!r} is not a registry "
                    "profile; fleets take PROFILES_BY_ID entries only"
                )
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if profile_workers and telemetry_dir is None:
            raise ValueError(
                "worker profiling needs telemetry: the dumps land in the "
                "telemetry run directory"
            )
        self.profiles = tuple(profiles)
        self.strategies = tuple(strategies)
        self.targets = tuple(targets)
        self.fleet_seed = fleet_seed
        self.workers = workers
        self.armed = armed
        self.target_state = target_state
        self.corpus_dir = corpus_dir
        # Workers stream (bounded memory per campaign) without a corpus;
        # with one, run_shard keeps just the sent capture that write-back
        # replays. The merged report is the same either way, and this
        # bool stays in the fleet signature so earlier runs resume.
        self.retain_trace = corpus_dir is not None
        self.batch = batch
        self.telemetry_dir = telemetry_dir
        self.profile_workers = profile_workers
        self.fault_plan = fault_plan
        self.resume_run_id = resume_run_id
        self.shard_timeout = shard_timeout
        #: Supervision stats from the most recent :meth:`run` (None
        #: before any run).
        self.last_supervision: SupervisionStats | None = None
        if resume_run_id is not None and telemetry_dir is None:
            raise ValueError(
                "a resume needs telemetry: shard checkpoints live in the "
                "telemetry run directory"
            )
        self._external_runtime = runtime
        self.abort_check = abort_check
        if runtime is not None and runtime.workers != workers:
            raise ValueError(
                f"external runtime has {runtime.workers} worker(s) but "
                f"the fleet declares {workers}; the report records the "
                "pool that actually ran it"
            )
        self._signature = self._fleet_signature()
        if resume_run_id is not None:
            self._validate_resume()
        if telemetry_dir is not None:
            from repro.telemetry import RunRecorder

            self._recorder = RunRecorder(
                telemetry_dir,
                workers=workers,
                run_id=resume_run_id,
                fleet_signature=self._signature,
                resumed=resume_run_id is not None,
            )
        else:
            self._recorder = None
        self._prior_visits, self._dictionary = load_corpus_seeds(corpus_dir)
        self._sync_context_snapshot()
        self._runtime: FleetRuntime | None = None
        self._keep_runtime = False

    # -- runtime lifecycle ----------------------------------------------------------

    @property
    def run_id(self) -> str | None:
        """The telemetry run identifier (None without telemetry)."""
        return self._recorder.run_id if self._recorder is not None else None

    @property
    def run_dir(self):
        """The telemetry run directory (None without telemetry)."""
        return self._recorder.run_dir if self._recorder is not None else None

    def _build_context(self) -> FleetContext:
        """The worker-side campaign context this fleet runs under."""
        recorder = self._recorder
        return FleetContext(
            base_config=self.base_config,
            armed=self.armed,
            target_state_value=self.target_state.value,
            corpus_dir=self.corpus_dir,
            retain_trace=self.retain_trace,
            prior_visits=tuple(sorted(self._prior_visits.items())),
            dictionary=self._dictionary,
            telemetry_dir=(
                str(recorder.root) if recorder is not None else None
            ),
            run_id=recorder.run_id if recorder is not None else None,
            profile_workers=self.profile_workers,
            fault_plan=self.fault_plan,
        )

    def _ensure_runtime(self) -> FleetRuntime:
        if self._external_runtime is not None:
            return self._external_runtime
        if self._runtime is None:
            self._runtime = FleetRuntime(
                workers=self.workers, shard_timeout=self.shard_timeout
            )
        return self._runtime

    def close(self) -> None:
        """Shut the persistent runtime down (idempotent).

        Also finishes the telemetry run: leftover journal segments are
        merged and the manifest flips to ``finished``. (A recorder that
        never reaches here — killed process, leaked orchestrator —
        still flushes via its interpreter-exit finalizer, leaving an
        ``aborted`` manifest and a readable partial journal.)
        """
        if self._runtime is not None:
            self._runtime.close()
            self._runtime = None
        if self._recorder is not None:
            self._recorder.close()

    def __enter__(self) -> "FleetOrchestrator":
        """Keep one warm pool across :meth:`run` calls until :meth:`close`
        (a bare ``run()`` closes its pool before returning)."""
        self._keep_runtime = True
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def specs(self) -> tuple[CampaignSpec, ...]:
        """The fleet matrix in dispatch order (profile-major)."""
        return tuple(
            CampaignSpec(
                index=index,
                device_id=profile.device_id,
                strategy=strategy,
                seed=derive_campaign_seed(self.fleet_seed, index),
                target=target,
            )
            for index, (profile, strategy, target) in enumerate(
                itertools.product(self.profiles, self.strategies, self.targets)
            )
        )

    def run(self) -> FleetReport:
        """Run every campaign and merge the results.

        Campaigns execute on the persistent batched runtime and merge
        from compact summaries. Results are ordered by spec index, so
        the merged report does not depend on completion order (or on
        :attr:`workers` or :attr:`batch` at all).
        """
        specs = self.specs()
        recorder = self._recorder
        wall_started = time.perf_counter()
        if recorder is not None:
            recorder.run_started(specs, self.workers, self.batch)
        _log.debug(
            "fleet run: %d campaign(s) over %d worker(s)%s",
            len(specs),
            self.workers,
            f" [telemetry run {self.run_id}]" if recorder is not None else "",
        )
        try:
            by_index: dict[int, CampaignSummary] = (
                self._load_resume_checkpoints(specs)
                if self.resume_run_id is not None
                else {}
            )
            missing = [spec for spec in specs if spec.index not in by_index]
            runtime = self._ensure_runtime()
            try:
                summaries = runtime.run_specs(
                    missing,
                    batch=self.batch,
                    context=self._build_context(),
                    on_event=recorder.emit if recorder is not None else None,
                    should_abort=self.abort_check,
                )
            finally:
                self.last_supervision = runtime.last_supervision
                if not self._keep_runtime and self._runtime is not None:
                    self._runtime.close()
                    self._runtime = None
            for spec, summary in zip(missing, summaries):
                if summary is not None:
                    by_index[spec.index] = summary
            report = merge_reports(
                [
                    (spec, by_index[spec.index])
                    for spec in specs
                    if spec.index in by_index
                ],
                PROFILES_BY_ID,
                self.fleet_seed,
                self.workers,
                quarantined=self.last_supervision.quarantined,
            )
        except BaseException as error:
            # Abort path (includes KeyboardInterrupt — a killed run must
            # leave a resumable trail): record why, keep the completed
            # shards' checkpoints on disk, re-raise.
            if recorder is not None:
                recorder.record_failure(f"{type(error).__name__}: {error}")
            raise
        if recorder is not None:
            recorder.record_run(
                report,
                wall_seconds=time.perf_counter() - wall_started,
                profiles_by_id=PROFILES_BY_ID,
                supervision=self.last_supervision,
            )
            if not self._keep_runtime:
                recorder.close()
        return report

    # -- resume ---------------------------------------------------------------------

    def _fleet_signature(self) -> str:
        """Digest of everything that shapes campaign *results*.

        Two fleets with the same signature produce the same summaries
        campaign for campaign, so their checkpoints are exchangeable.
        Workers, batch size and telemetry settings are deliberately
        excluded — they cannot change results (pinned by the
        worker-independence tests), and a resume may legitimately use a
        different pool size than the interrupted run.
        """
        payload = json.dumps(
            {
                "fleet_seed": self.fleet_seed,
                "armed": self.armed,
                "config": repr(self.base_config),
                "target_state": self.target_state.value,
                "retain_trace": self.retain_trace,
                "specs": [list(spec) for spec in self.specs()],
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def _validate_resume(self) -> None:
        """Refuse to merge checkpoints from a different fleet."""
        from repro.telemetry import read_manifest

        run_dir = Path(self.telemetry_dir) / self.resume_run_id
        manifest = read_manifest(run_dir)
        if manifest is None:
            raise ValueError(
                f"no resumable run at {run_dir} "
                "(missing or unreadable run.json)"
            )
        recorded = manifest.get("fleet_signature")
        if recorded is not None and recorded != self._signature:
            raise ValueError(
                f"fleet does not match run {self.resume_run_id} "
                "(different seed, matrix, or config); refusing to merge "
                "its checkpoints into a different fleet"
            )

    def _sync_context_snapshot(self) -> None:
        """Pin corpus-derived campaign inputs across resume boundaries.

        The visit prior and splice dictionary are read from the live
        corpus at construction — but a corpus that partially absorbed
        the interrupted run's write-back would seed resumed campaigns
        differently and break resume's byte-identity. The first run
        snapshots exactly what it used into the run directory; a resume
        loads the snapshot instead of re-reading the corpus. The write
        is atomic, so a kill mid-write leaves the whole snapshot or
        none (and a resume without one re-reads the corpus, like the
        first run did).
        """
        if self._recorder is None:
            return
        path = self._recorder.run_dir / CONTEXT_SNAPSHOT_FILENAME
        if self.resume_run_id is not None and path.exists():
            data = json.loads(path.read_text(encoding="utf-8"))
            self._prior_visits = {
                token: count for token, count in data["prior_visits"]
            }
            self._dictionary = tuple(
                bytes.fromhex(chunk) for chunk in data["dictionary"]
            )
            return
        atomic_write(
            path,
            json.dumps(
                {
                    "prior_visits": sorted(self._prior_visits.items()),
                    "dictionary": [
                        chunk.hex() for chunk in self._dictionary
                    ],
                }
            )
            + "\n",
        )

    def _load_resume_checkpoints(self, specs) -> dict[int, CampaignSummary]:
        """Checkpointed summaries of the interrupted run, by spec index.

        Only indices that exist in this fleet's matrix count (the
        signature already guarantees the matrices match; this guards
        against stray files); undecodable checkpoints were already
        skipped by the tolerant loader and simply re-run.
        """
        valid = {spec.index for spec in specs}
        restored = {
            index: summary
            for index, summary in load_checkpoints(
                Path(self.telemetry_dir) / self.resume_run_id
            ).items()
            if index in valid
        }
        _log.info(
            "resume %s: %d of %d campaign(s) restored from checkpoints",
            self.resume_run_id,
            len(restored),
            len(specs),
        )
        return restored


def load_corpus_seeds(
    corpus_dir: str | None,
) -> tuple[dict[str, int], tuple[bytes, ...]]:
    """Visit prior + splice dictionary from an existing shared corpus.

    Both come back empty for a cold corpus (or none at all), which
    leaves every campaign exactly as seeded: the corpus only *adds*
    guidance once previous runs have fed it.
    """
    if corpus_dir is None:
        return {}, ()
    from repro.corpus.backend import open_backend

    # One database handle serves both reads. A cold, partial
    # (findings-only) or pruned corpus degrades gracefully to an empty
    # prior/dictionary instead of being skipped wholesale.
    backend = open_backend(corpus_dir)
    try:
        return (backend.state_frequencies(), backend.garbage_dictionary())
    finally:
        backend.close()


