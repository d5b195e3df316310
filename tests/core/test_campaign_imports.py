"""A disarmed L2CAP campaign imports the campaign and nothing else.

Cold start is import time: the fleet runtime, fault injection, the
corpus, telemetry, the service and the other protocol targets must not
load until something runs them. The set of loaded modules is
deterministic, so this pins it instead of timing it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

#: Packages and modules a disarmed L2CAP campaign never runs.
OFF_THE_CAMPAIGN_PATH = (
    "repro.core.fleet",
    "repro.core.runtime",
    "repro.core.triage",
    "repro.faults",
    "repro.durability",
    "repro.telemetry",
    "repro.corpus",
    "repro.service",
    "repro.rfcomm",
    "repro.obex",
    "repro.targets.rfcomm",
    "repro.targets.sdp",
    "repro.targets.obex",
    "multiprocessing",
    "concurrent.futures",
    "sqlite3",
)

LAZY_TARGETS = ("repro.targets.rfcomm", "repro.targets.sdp", "repro.targets.obex")

_PROBE = """
import json
import sys

before = set(sys.modules)
from repro.targets import target_names

names = target_names()
after_names = set(sys.modules)
from repro.core.config import FuzzConfig
from repro.testbed.profiles import PROFILES_BY_ID
from repro.testbed.session import FuzzSession

report = FuzzSession(
    profile=PROFILES_BY_ID["D1"],
    config=FuzzConfig(max_packets=300, seed=5),
    armed=False,
    zero_latency=True,
    retain_trace=False,
).run()
print(json.dumps({
    "names": list(names),
    "after_names": sorted(after_names - before),
    "loaded": sorted(set(sys.modules) - before),
    "transmitted": report.efficiency.transmitted,
}))
"""


@pytest.fixture(scope="module")
def probe() -> dict:
    """What a fresh interpreter loaded for ``target_names()`` and for a
    short disarmed D1 campaign."""
    result = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(result.stdout.splitlines()[-1])


def _under(module: str, packages) -> bool:
    return any(module == name or module.startswith(name + ".") for name in packages)


def test_campaign_loads_only_the_campaign_path(probe):
    assert probe["transmitted"] > 0
    assert "repro.targets.l2cap" in probe["loaded"]
    stray = [m for m in probe["loaded"] if _under(m, OFF_THE_CAMPAIGN_PATH)]
    assert stray == []


def test_target_names_lists_builtins_without_loading_them(probe):
    assert probe["names"] == ["l2cap", "rfcomm", "sdp", "obex"]
    assert [m for m in probe["after_names"] if _under(m, LAZY_TARGETS)] == []
    assert "repro.targets.l2cap" not in probe["after_names"]
