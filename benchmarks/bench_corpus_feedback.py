"""Corpus feedback bench: packets-to-coverage with energy scheduling.

The coverage-guided :class:`~repro.corpus.scheduler.EnergyScheduler`
feeds the fuzzer's per-state visit counts back into mutation
scheduling: minimal budgets while the state map is incomplete, then
rarity-weighted budgets once it is. This benchmark measures the payoff
the PR promises — on the simulated testbed, a coverage-guided campaign
reaches the sequential baseline's wire-inferred state coverage with
**fewer mutated packets** — and then demonstrates the cross-campaign
loop: the campaigns feed a shared corpus whose canonical (cmin) form
still covers everything, and whose state-frequency prior seeds the next
campaign straight into exploit mode.
"""

from __future__ import annotations

from repro.analysis.state_coverage import (
    StateCoverageAnalyzer,
    packets_to_coverage,
)
from repro.core.config import FuzzConfig
from repro.corpus.scheduler import EnergyScheduler
from repro.corpus.backend import open_backend
from repro.testbed.profiles import D2
from repro.testbed.session import FuzzSession

from benchmarks.bench_helpers import print_table, run_once, scaled

BUDGET = 4_000
QUICK_BUDGET = 1_500


def _run_campaign(budget: int, strategy, corpus_dir=None) -> FuzzSession:
    session = FuzzSession(
        D2,
        FuzzConfig(max_packets=budget),
        armed=False,
        strategy=strategy,
        corpus_dir=corpus_dir,
    )
    session.run()
    return session


def bench_corpus_feedback(benchmark, quick, tmp_path):
    budget = scaled(quick, BUDGET, QUICK_BUDGET)
    corpus_dir = str(tmp_path / "corpus")

    def _run():
        baseline = _run_campaign(budget, "sequential", corpus_dir)
        guided = _run_campaign(budget, "coverage_guided", corpus_dir)
        store = open_backend(corpus_dir)
        seeded = _run_campaign(
            budget, EnergyScheduler(prior_visits=store.state_frequencies())
        )
        return baseline, guided, seeded, store

    baseline, guided, seeded, store = run_once(benchmark, _run)
    target = StateCoverageAnalyzer().analyze(baseline.fuzzer.sniffer)

    rows = []
    for label, session in (
        ("feedback off (sequential)", baseline),
        ("feedback on (coverage_guided)", guided),
        ("feedback on + corpus prior", seeded),
    ):
        report_states = StateCoverageAnalyzer().analyze(session.fuzzer.sniffer)
        rows.append(
            {
                "campaign": label,
                "packets_to_baseline_coverage": packets_to_coverage(
                    session.fuzzer.sniffer, len(target)
                ),
                "total_packets": session.fuzzer.sniffer.transmitted_count(),
                "states_covered": len(report_states),
            }
        )
    print_table(
        f"Corpus feedback — packets to {len(target)}-state coverage (D2)", rows
    )

    canonical = store.minimize(write=False)
    canonical_coverage = set()
    for entry in canonical:
        canonical_coverage.update(entry.covered)
    print(
        f"shared corpus: {store.entry_count()} entries, cmin -> {len(canonical)}"
        f" covering {len(canonical_coverage)} token(s)"
    )

    baseline_packets = rows[0]["packets_to_baseline_coverage"]
    guided_packets = rows[1]["packets_to_baseline_coverage"]
    # The headline claim holds in both modes: feedback scheduling
    # reaches the baseline's coverage with fewer mutated packets.
    assert baseline_packets is not None and guided_packets is not None
    assert guided_packets < baseline_packets
    # cmin never loses coverage.
    assert canonical_coverage == set(store.coverage())
    if quick:
        return
    # At full budget the gap is decisive (~2x in practice).
    assert guided_packets * 3 < baseline_packets * 2
