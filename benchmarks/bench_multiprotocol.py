"""Multi-protocol campaign benchmark: wall pps + coverage per target.

One streaming campaign per registered fuzz target (l2cap, rfcomm, sdp,
obex) against the same device, measuring what the protocol-agnostic
redesign must not cost: wall-clock packets per second through the
shared engine, and full state-plan coverage for every protocol.

Every run appends to ``benchmarks/BENCH_multiprotocol.json`` so the
per-target perf trajectory accumulates across PRs. The CI
benchmark-smoke job runs the ``--quick`` mode. The L2CAP packet path
is gated elsewhere: exactly, by the per-layer work budget
(``benchmarks/WORK_BUDGET.json``) on the ``perfbench`` stream workload,
and in wall time by the ``perfbench`` A/B bounds.
"""

from __future__ import annotations

import datetime
import json
import time
from pathlib import Path

from repro.core.config import FuzzConfig
from repro.targets import TARGET_NAMES, make_target
from repro.testbed.profiles import D2
from repro.testbed.session import FuzzSession

from benchmarks.bench_helpers import print_table, run_once, scaled

BUDGET = 30_000
QUICK_BUDGET = 3_000

RESULTS_PATH = Path(__file__).resolve().parent / "BENCH_multiprotocol.json"


def _load_results() -> dict:
    if RESULTS_PATH.exists():
        return json.loads(RESULTS_PATH.read_text(encoding="utf-8"))
    return {"runs": []}


def _run_target(name: str, budget: int) -> dict:
    target = make_target(name)
    session = FuzzSession(
        profile=D2,
        config=FuzzConfig(seed=7, max_packets=budget),
        armed=False,
        zero_latency=True,
        retain_trace=False,
        target=target,
    )
    start = time.perf_counter()
    report = session.run()
    wall = time.perf_counter() - start
    return {
        "target": name,
        "packets": report.packets_sent,
        "wall_seconds": round(wall, 4),
        "wall_pps": round(report.packets_sent / wall, 1),
        "states_covered": len(report.covered_states),
        "state_space": report.state_space,
        "sweeps": report.sweeps_completed,
    }


def bench_multiprotocol(benchmark, quick):
    budget = scaled(quick, BUDGET, QUICK_BUDGET)
    rows = run_once(
        benchmark, lambda: [_run_target(name, budget) for name in TARGET_NAMES]
    )

    entry = {
        "mode": "quick" if quick else "full",
        "budget": budget,
        "targets": {row["target"]: row for row in rows},
        "recorded": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
    }
    data = _load_results()
    data.setdefault("runs", []).append(entry)
    data["runs"] = data["runs"][-50:]
    RESULTS_PATH.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")

    print_table("multi-protocol — wall pps and coverage per target", rows)

    by_target = {row["target"]: row for row in rows}
    assert set(by_target) == set(TARGET_NAMES)
    for name in TARGET_NAMES:
        row = by_target[name]
        # Every protocol's campaign must spend its whole budget and
        # cover its full state plan — a routing regression in any
        # target shows up here before it shows up in the field.
        assert row["packets"] >= budget
        plan = make_target(name).state_plan()
        assert row["states_covered"] >= len(plan)
