"""Integration tests for fleets on the persistent batched runtime.

The contract under test: execution topology — worker count, shard
granularity, pool reuse, inline vs. process pool — must never
change what a fleet computes. Only the schedule-derived summary fields
may vary with the worker count.
"""

from __future__ import annotations

import pytest

from repro.core.config import FuzzConfig
from repro.core.fleet import FleetOrchestrator
from repro.core.runtime import (
    CampaignSpec,
    CampaignSummary,
    FleetContext,
    FleetRuntime,
)
from repro.testbed.profiles import ALL_PROFILES

SCHEDULE_KEYS = (
    "workers",
    "simulated_makespan_seconds",
    "campaigns_per_simulated_second",
)


def _orchestrator(workers: int = 1, batch: int | None = None, **kwargs):
    return FleetOrchestrator(
        profiles=ALL_PROFILES[:3],
        strategies=("sequential", "targeted"),
        fleet_seed=7,
        workers=workers,
        base_config=FuzzConfig(max_packets=700),
        batch=batch,
        **kwargs,
    )


def _comparable(report) -> dict:
    rendered = report.to_dict()
    for key in SCHEDULE_KEYS:
        rendered.pop(key)
    return rendered


class TestWorkerIndependence:
    def test_merged_report_identical_across_worker_counts(self):
        rendered = {}
        for workers in (1, 2, 4):
            with _orchestrator(workers=workers) as orchestrator:
                rendered[workers] = _comparable(orchestrator.run())
        assert rendered[1] == rendered[2] == rendered[4]

    def test_merged_report_identical_across_batch_sizes(self):
        rendered = []
        for batch in (1, 2, 6, None):
            with _orchestrator(workers=2, batch=batch) as orchestrator:
                rendered.append(orchestrator.run().to_dict())
        assert all(entry == rendered[0] for entry in rendered[1:])

    def test_findings_dedupe_identically_across_workers(self):
        # The armed fleet crashes several campaigns; dedup and
        # first-detection attribution must not depend on the pool.
        reports = {}
        for workers in (1, 4):
            with _orchestrator(workers=workers) as orchestrator:
                reports[workers] = orchestrator.run()
        assert [
            (f.target, f.vendor, f.vulnerability_class, f.trigger, f.occurrences)
            for f in reports[1].findings
        ] == [
            (f.target, f.vendor, f.vulnerability_class, f.trigger, f.occurrences)
            for f in reports[4].findings
        ]


class TestPersistentRuntime:
    def test_repeated_runs_reuse_runtime_and_agree(self):
        with _orchestrator(workers=2) as orchestrator:
            first = orchestrator.run()
            runtime = orchestrator._runtime
            second = orchestrator.run()
            assert orchestrator._runtime is runtime  # same pool, not rebuilt
        assert first.to_json() == second.to_json()

    def test_campaigns_are_the_summaries_the_runtime_returned(self):
        orchestrator = _orchestrator(workers=1)
        with orchestrator:
            report = orchestrator.run()
        specs = orchestrator.specs()
        summaries = FleetRuntime(orchestrator._build_context()).run_specs(
            specs
        )
        assert report.campaigns == tuple(zip(specs, summaries))
        spec, summary = report.campaigns[0]
        assert isinstance(spec, CampaignSpec)
        assert isinstance(summary, CampaignSummary)

    def test_close_is_idempotent(self):
        orchestrator = _orchestrator(workers=2)
        orchestrator.run()
        orchestrator.close()
        orchestrator.close()

    def test_bare_run_does_not_leak_worker_pool(self):
        # Outside a with-block, run() must clean its pool up before
        # returning, like the original per-run executors did.
        orchestrator = _orchestrator(workers=2)
        orchestrator.run()
        assert orchestrator._runtime is None

    def test_one_warm_pool_runs_many_contexts(self):
        # Every shard carries its own context, so a warm pool's workers
        # keep nothing from the previous call: A, B, A on one pool each
        # match a fresh inline run of that context.
        def context(budget: int, armed: bool) -> FleetContext:
            return FleetContext(
                base_config=FuzzConfig(max_packets=budget),
                armed=armed,
                target_state_value="OPEN",
                corpus_dir=None,
                retain_trace=False,
                prior_visits=(),
                dictionary=(),
            )

        a, b = context(700, True), context(300, False)
        specs = _orchestrator().specs()
        expected = {
            key: FleetRuntime(ctx).run_specs(specs)
            for key, ctx in (("a", a), ("b", b))
        }
        assert expected["a"] != expected["b"]
        with FleetRuntime(workers=2) as runtime:
            for key, ctx in (("a", a), ("b", b), ("a", a)):
                assert runtime.run_specs(specs, context=ctx) == expected[key]

    def test_run_without_context_is_refused_before_the_pool_starts(self):
        runtime = FleetRuntime(workers=2)
        specs = _orchestrator().specs()
        with pytest.raises(ValueError, match="needs a context"):
            runtime.run_specs(specs)
        assert runtime._pool is None


class TestBatchedCorpusWriteBack:
    def test_corpus_contents_independent_of_workers_and_batch(self, tmp_path):
        from repro.corpus import open_backend

        contents = []
        for index, (workers, batch) in enumerate(((1, None), (2, 1), (2, 3))):
            root = tmp_path / f"corpus-{index}"
            orchestrator = FleetOrchestrator(
                profiles=ALL_PROFILES[:2],
                strategies=("sequential",),
                fleet_seed=7,
                workers=workers,
                batch=batch,
                base_config=FuzzConfig(max_packets=600),
                corpus_dir=str(root),
            )
            with orchestrator:
                orchestrator.run()
            contents.append(
                (
                    {entry.entry_id for entry in open_backend(root).entries()},
                    {
                        record.bucket_id
                        for record in open_backend(root).finding_records()
                    },
                )
            )
        assert contents[0] == contents[1] == contents[2]
        entries, buckets = contents[0]
        assert entries and buckets

    def test_summary_carries_corpus_stats(self, tmp_path):
        orchestrator = FleetOrchestrator(
            profiles=ALL_PROFILES[:1],
            strategies=("sequential",),
            workers=1,
            base_config=FuzzConfig(max_packets=600),
            corpus_dir=str(tmp_path / "corpus"),
        )
        with orchestrator:
            report = orchestrator.run()
        stats = [
            summary.corpus_entries_added for _, summary in report.campaigns
        ]
        assert sum(stats) > 0


class TestBatchValidation:
    def test_zero_batch_rejected(self):
        with pytest.raises(ValueError, match="batch"):
            _orchestrator(workers=2, batch=0)
