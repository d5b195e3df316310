"""Fleet scaling: campaigns per second vs. worker-pool size.

A fleet campaign occupies one worker (one fuzzing dongle, in the
paper's physical setup) for its simulated duration, so fleet throughput
is governed by the makespan of the campaign schedule over the pool.
This benchmark runs the same 4-profile × 2-strategy fleet on 1, 2 and 4
workers on the persistent batched runtime and asserts near-linear
scaling of the simulated schedule — ≥0.8× linear at 4 workers.

The fleet runs **disarmed**: a scaling benchmark needs a saturating
workload. Armed, the Table-V bugs stop most campaigns within seconds
while one immune device fuzzes its whole budget — the 1→4-worker
speedup is then capped at ``sum/max ≈ 2.5×`` by that single straggler
no matter how good the scheduler is, which measures workload luck, not
the runtime. Disarmed, every campaign runs its full budget (the paper's
own ratio-measurement posture) and the schedule itself is what scales.

Wall-clock dispatch time is also recorded — cold (pool start-up +
context shipping) and warm (the persistent runtime reused) — and every
run is appended to ``benchmarks/BENCH_fleet_scaling.json`` so the
scaling trajectory accumulates across PRs. Worker count must never
change *what* the fleet computes: the merged reports are asserted
identical across all pool sizes, batch granularities included.

The supervised dispatch loop (deadlines, retry bookkeeping, futures
instead of ``pool.map``) is also priced here: the same warm fleet is
dispatched supervised and unsupervised, median of three each, and the
overhead is gated at <3% (plus a 50 ms absolute allowance for
sub-second dispatches).
"""

from __future__ import annotations

import datetime
import json
import statistics
import time
from pathlib import Path

from repro.core.config import FuzzConfig
from repro.core.fleet import FleetOrchestrator
from repro.testbed.profiles import ALL_PROFILES

from benchmarks.bench_helpers import print_table, run_once, scaled

BUDGET = 3_000
QUICK_BUDGET = 800
FLEET_SEED = 7
STRATEGIES = ("breadth_first", "targeted")
WORKER_COUNTS = (1, 2, 4)

#: Required fraction of perfectly linear scaling at 4 workers.
LINEAR_FLOOR = 0.8

#: Supervision must cost <3% of dispatch wall time (plus a 50 ms
#: absolute allowance so sub-second dispatches don't gate on noise).
SUPERVISION_OVERHEAD_FRACTION = 0.03
SUPERVISION_OVERHEAD_ABS_S = 0.05

RESULTS_PATH = Path(__file__).resolve().parent / "BENCH_fleet_scaling.json"


def _run_fleet(workers: int, budget: int):
    orchestrator = FleetOrchestrator(
        profiles=ALL_PROFILES[:4],
        strategies=STRATEGIES,
        fleet_seed=FLEET_SEED,
        workers=workers,
        base_config=FuzzConfig(max_packets=budget),
        armed=False,
    )
    with orchestrator:
        started = time.perf_counter()
        report = orchestrator.run()
        cold = time.perf_counter() - started
        # Second run on the same (already initialised) runtime: what a
        # long-lived fleet service pays per sweep.
        started = time.perf_counter()
        orchestrator.run()
        warm = time.perf_counter() - started
    return report, cold, warm


def _measure_supervision_overhead(budget: int) -> tuple[float, float]:
    """Median warm dispatch time: supervised vs bare ``pool.map``.

    Same fleet, same persistent pool, interleaved measurements so CPU
    frequency drift hits both sides equally. Returns ``(supervised,
    unsupervised)`` medians over three rounds each.
    """
    orchestrator = FleetOrchestrator(
        profiles=ALL_PROFILES[:4],
        strategies=STRATEGIES,
        fleet_seed=FLEET_SEED,
        workers=2,
        base_config=FuzzConfig(max_packets=budget),
        armed=False,
    )
    with orchestrator:
        orchestrator.run()  # warm the pool
        runtime = orchestrator._ensure_runtime()
        context = orchestrator._build_context()
        specs = orchestrator.specs()
        timings: dict[bool, list[float]] = {True: [], False: []}
        for _ in range(3):
            for supervised in (False, True):
                started = time.perf_counter()
                runtime.run_specs(
                    specs, supervised=supervised, context=context
                )
                timings[supervised].append(time.perf_counter() - started)
    return statistics.median(timings[True]), statistics.median(timings[False])


def _load_results() -> dict:
    if RESULTS_PATH.exists():
        return json.loads(RESULTS_PATH.read_text(encoding="utf-8"))
    return {"runs": []}


def bench_fleet_scaling(benchmark, quick):
    budget = scaled(quick, BUDGET, QUICK_BUDGET)

    def measure_all():
        return {
            workers: _run_fleet(workers, budget) for workers in WORKER_COUNTS
        }

    results = run_once(benchmark, measure_all)
    rows = []
    for workers, (report, cold, warm) in results.items():
        rows.append(
            {
                "workers": workers,
                "campaigns": len(report.campaigns),
                "makespan_sim_s": round(report.simulated_makespan_seconds, 2),
                "campaigns_per_sim_s": round(
                    report.campaigns_per_simulated_second, 6
                ),
                "dispatch_cold_s": round(cold, 2),
                "dispatch_warm_s": round(warm, 2),
            }
        )
    print_table("Fleet scaling — campaigns/sec vs workers", rows)

    single = results[1][0]
    quad = results[4][0]
    # Worker count must not change what the fleet finds or covers —
    # only the schedule-dependent summary fields may differ.
    schedule_keys = (
        "workers",
        "simulated_makespan_seconds",
        "campaigns_per_simulated_second",
    )
    single_dict = single.to_dict()
    quad_dict = quad.to_dict()
    for key in schedule_keys:
        single_dict.pop(key)
        quad_dict.pop(key)
    assert single_dict == quad_dict

    speedup = (
        quad.campaigns_per_simulated_second
        / single.campaigns_per_simulated_second
    )
    linear_fraction = speedup / 4
    print(
        f"\n1 -> 4 workers: {speedup:.2f}x campaigns/sec "
        f"({linear_fraction:.1%} of linear)"
    )

    supervised_s, unsupervised_s = _measure_supervision_overhead(budget)
    overhead = (
        supervised_s / unsupervised_s - 1.0 if unsupervised_s > 0 else 0.0
    )
    print(
        f"supervision overhead: {supervised_s:.2f}s supervised vs "
        f"{unsupervised_s:.2f}s bare map ({overhead:+.1%})"
    )

    data = _load_results()
    data.setdefault("runs", []).append(
        {
            "mode": "quick" if quick else "full",
            "budget": budget,
            "workers": [
                {
                    "workers": row["workers"],
                    "makespan_sim_s": row["makespan_sim_s"],
                    "campaigns_per_sim_s": row["campaigns_per_sim_s"],
                    "dispatch_cold_s": row["dispatch_cold_s"],
                    "dispatch_warm_s": row["dispatch_warm_s"],
                }
                for row in rows
            ],
            "speedup_1_to_4": round(speedup, 4),
            "linear_fraction_4w": round(linear_fraction, 4),
            "supervised_dispatch_s": round(supervised_s, 4),
            "unsupervised_dispatch_s": round(unsupervised_s, 4),
            "supervision_overhead": round(overhead, 4),
            "recorded": datetime.datetime.now(datetime.timezone.utc).isoformat(
                timespec="seconds"
            ),
        }
    )
    data["runs"] = data["runs"][-50:]
    RESULTS_PATH.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")

    assert speedup >= LINEAR_FLOOR * 4, (
        f"fleet scaling regression: {speedup:.2f}x at 4 workers is below "
        f"the {LINEAR_FLOOR:.0%}-of-linear floor ({LINEAR_FLOOR * 4:.1f}x)"
    )

    budget_s = (
        unsupervised_s * (1 + SUPERVISION_OVERHEAD_FRACTION)
        + SUPERVISION_OVERHEAD_ABS_S
    )
    assert supervised_s <= budget_s, (
        f"supervision overhead regression: {supervised_s:.3f}s supervised "
        f"vs {unsupervised_s:.3f}s bare map exceeds the "
        f"{SUPERVISION_OVERHEAD_FRACTION:.0%} + "
        f"{SUPERVISION_OVERHEAD_ABS_S * 1000:.0f}ms budget ({budget_s:.3f}s)"
    )
