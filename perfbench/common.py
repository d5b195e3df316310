"""Shared helpers: statistics, memory, work directories and the result line."""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

#: Every working file a run creates lives under this directory of the
#: checkout (listed in the root .gitignore) and is removed at the end.
WORK_DIRNAME = ".perfbench_work"

#: The paper's L2Fuzz transmission rate on the simulated clock (§IV.C).
PAPER_SIM_PPS = 524.27

#: Supervision events a fleet journal carries when a shard had to be
#: retried, timed out, lost its worker or was quarantined.
SUPERVISION_EVENTS = frozenset(
    {"worker_crash", "shard_retry", "shard_timeout", "shard_quarantined"}
)


def derived_seeds(seed: int, label: str):
    """An endless stream of 32-bit input seeds derived from the workload
    seed; *label* keeps the streams of different consumers apart."""
    rng = random.Random(f"{label}:{seed}")
    while True:
        yield rng.getrandbits(32)


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; ``math.inf`` entries (failed operations)
    sort last, so a failure counts as missing every percentile it lands
    in."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb(pids) -> float:
    """Sum of the peak resident set sizes (``VmHWM``) of *pids*, in MB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except (OSError, ValueError):
            continue  # the process already exited
    return total_kb / 1024.0


def child_pids() -> list[int]:
    """Live direct children of this process (pool workers)."""
    me = os.getpid()
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                stat = handle.read()
        except OSError:
            continue
        # The command name may contain spaces: fields resume after ')'.
        fields = stat[stat.rindex(")") + 2 :].split()
        if int(fields[1]) == me:
            children.append(int(entry))
    return children


def workload_rss_mb() -> float:
    """Peak RSS of this process plus its live worker processes, in MB."""
    return peak_rss_mb([os.getpid(), *child_pids()])


class WorkDir:
    """A private scratch directory under the checkout, removed on exit."""

    def __init__(self, root: Path, label: str) -> None:
        base = root / WORK_DIRNAME
        base.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix=f"{label}-", dir=base))

    def __enter__(self) -> Path:
        return self.path

    def __exit__(self, *_exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.path.parent.rmdir()  # only succeeds once it is empty
        except OSError:
            pass


class Outcome:
    """Operation accounting and the one-line JSON result."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.metrics: dict[str, dict] = {}

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(reason)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def emit(self, names) -> None:
        """Print diagnostics to stderr, then the one-line JSON result.

        *names* is the metric set this mode must report; every one of
        them is present (a metric missing from the run is a bug here).
        """
        missing = [name for name in names if name not in self.metrics]
        if missing:
            raise RuntimeError(f"metrics not measured: {missing}")
        for reason in self.errors:
            print(f"perfbench: failed operation: {reason}", file=sys.stderr)
        result = {
            "correct": self.failed == 0 and self.attempted > 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: self.metrics[name] for name in names},
        }
        print(json.dumps(result))


def set_efficiency_ratios(
    outcome: Outcome, transmitted: int, malformed: int, received: int, rejections: int
) -> None:
    """The paper's behaviour pins, from the reports' efficiency counts."""
    outcome.metric("mutation.malformed_ratio", malformed / transmitted, "ratio")
    outcome.metric("engine.reject_ratio", rejections / transmitted, "ratio")
    outcome.metric("packet_queue.rx_per_tx", received / transmitted, "ratio")
