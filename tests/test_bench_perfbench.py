"""Schema of ``benchmarks/BENCH_perfbench.json``, the perf trajectory.

Each entry records one change on one ``perfbench`` workload: the
interleaved parent/change pairs it ran, and per end-to-end metric of
``BENCHMARK.json`` the median of each side, with quartiles where they
were recorded. Entries transcribed after the fact are labelled
``backfilled``; entries written from their own runs (``measured``) must
carry seeds, quartiles and per-metric pair wins.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRAJECTORY = ROOT / "benchmarks" / "BENCH_perfbench.json"
COMMIT = re.compile(r"^[0-9a-f]{7,40}$")
ENTRY_KEYS = {
    "title",
    "commit",
    "parent",
    "source",
    "workload",
    "seeds",
    "pairs",
    "seconds",
    "claimed",
    "metrics",
    "note",
}
METRIC_KEYS = {
    "parent",
    "change",
    "parent_quartiles",
    "change_quartiles",
    "better_pairs",
}


def _load():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    trajectory = json.loads(TRAJECTORY.read_text(encoding="utf-8"))
    return benchmark, trajectory


def _check_metric(name: str, metric: dict, entry: dict) -> None:
    assert set(metric) == METRIC_KEYS, (entry["title"], name)
    for side in ("parent", "change"):
        assert isinstance(metric[side], (int, float)) and metric[side] > 0
        quartiles = metric[f"{side}_quartiles"]
        if quartiles is None:
            assert entry["source"] == "backfilled", (entry["title"], name)
            continue
        low, high = quartiles
        assert low <= metric[side] <= high, (entry["title"], name, side)
    wins = metric["better_pairs"]
    if wins is None:
        assert entry["source"] == "backfilled", (entry["title"], name)
    else:
        assert isinstance(wins, int) and 0 <= wins <= entry["pairs"]


def test_entries_follow_the_schema():
    benchmark, trajectory = _load()
    workloads = {workload["name"] for workload in benchmark["workloads"]}
    metrics = {metric["name"] for metric in benchmark["end_to_end"]}
    entries = trajectory["entries"]
    assert entries
    for entry in entries:
        assert set(entry) == ENTRY_KEYS, entry.get("title")
        assert entry["title"] and isinstance(entry["title"], str)
        assert entry["commit"] is None or COMMIT.match(entry["commit"])
        assert COMMIT.match(entry["parent"])
        assert entry["source"] in ("measured", "backfilled")
        assert entry["workload"] in workloads
        assert isinstance(entry["pairs"], int) and entry["pairs"] >= 1
        assert isinstance(entry["seconds"], (int, float)) and entry["seconds"] > 0
        assert entry["claimed"] is None or entry["claimed"] in metrics
        seeds = entry["seeds"]
        if seeds is None:
            assert entry["source"] == "backfilled", entry["title"]
        else:
            assert len(seeds) == entry["pairs"] or len(seeds) == 1
            assert all(isinstance(seed, int) for seed in seeds)
        assert set(entry["metrics"]) == metrics, entry["title"]
        for name, metric in entry["metrics"].items():
            _check_metric(name, metric, entry)


def test_a_claimed_gain_is_a_gain():
    benchmark, trajectory = _load()
    better = {metric["name"]: metric["better"] for metric in benchmark["end_to_end"]}
    for entry in trajectory["entries"]:
        if entry["claimed"] is None:
            continue
        metric = entry["metrics"][entry["claimed"]]
        if better[entry["claimed"]] == "higher":
            assert metric["change"] > metric["parent"], entry["title"]
        else:
            assert metric["change"] < metric["parent"], entry["title"]


def test_only_the_newest_change_lacks_its_commit():
    """``commit`` is null only on the entries their own commit adds,
    which are the last ones and share one parent."""
    _, trajectory = _load()
    entries = trajectory["entries"]
    pending = [index for index, entry in enumerate(entries) if entry["commit"] is None]
    if pending:
        assert pending == list(range(pending[0], len(entries)))
        assert len({entries[index]["parent"] for index in pending}) == 1
