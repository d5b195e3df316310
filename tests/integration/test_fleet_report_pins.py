"""SHA-256 pins of rendered fleet reports and of one fleet signature.

The fleet report is rendered from campaign summaries decoded off the
wire (or off checkpoints). These pins fix the exact bytes of the JSON
and markdown exports for a full 64-campaign sweep (8 profiles ×
{sequential, targeted} × 4 targets, budget 200, armed, one worker) at
three seeds, for one report that carries a quarantined campaign, and
the fleet signature resumed runs are matched by. Any change to how a
campaign result travels from a worker to the report must leave them
untouched.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.config import FuzzConfig
from repro.core.fleet import FleetOrchestrator
from repro.faults import FaultPlan, FaultSpec
from repro.testbed.profiles import ALL_PROFILES

STRATEGIES = ("sequential", "targeted")
TARGETS = ("l2cap", "rfcomm", "sdp", "obex")
BUDGET = 200

PINNED_SWEEPS = {
    1: (
        "04cd6108090d9cc46ac385319c89ab827729bdddb25a97fc9905f054f7d602cc",
        "f96c70c85cbc5b487f7d2ce21b053d16638ab83dcf85cd9fd2af06d3a7b3ad9d",
    ),
    2: (
        "2ebb050d47fb1b37990201a518e759cf2e3efcd0faaff15fe6d59e57f1c6af0f",
        "0f18ac15132cf5972f593a8fbdfbb843ed1e1e5fe2a39c6d41e633a0d816cc28",
    ),
    3: (
        "585bf68da654d77901e429ece4bd9ed6d02b3bb8efb774927aa38327080a6d6d",
        "48b2c11fe8fe44699f0981a1e03f107b000a196c6c71a800e03d0e12375f0b9a",
    ),
}

PINNED_QUARANTINE = (
    "7b569bc8ecccfd048d43e53f6872c693f0b70b81c69a8c86433acd5bcc4894db",
    "2ceccbaeeab12c656dd399cf449b3fb2e00e753cbccf632aabc6c341fefb7eac",
)

PINNED_SIGNATURE = "c74a49cbfa6ae244f9222215053bbb6343233dc007d7cb01ad55f459adc01140"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _sweep(fleet_seed: int, **kwargs) -> FleetOrchestrator:
    return FleetOrchestrator(
        profiles=ALL_PROFILES,
        strategies=STRATEGIES,
        fleet_seed=fleet_seed,
        workers=1,
        base_config=FuzzConfig(max_packets=BUDGET),
        armed=True,
        targets=TARGETS,
        **kwargs,
    )


@pytest.mark.parametrize("fleet_seed", sorted(PINNED_SWEEPS))
def test_sweep_report_bytes_are_pinned(fleet_seed):
    report = _sweep(fleet_seed).run()
    assert len(report.campaigns) == 64
    assert (
        _sha256(report.to_json()),
        _sha256(report.to_markdown()),
    ) == PINNED_SWEEPS[fleet_seed]


def test_quarantine_report_bytes_are_pinned(tmp_path):
    # Campaign 2 kills its worker on every attempt, so the supervisor
    # bisects it out and quarantines it after a solo confirmation run.
    plan = FaultPlan(
        faults=(
            FaultSpec(kind="crash", site="shard.start", spec_index=2, times=999),
        ),
        ledger_dir=str(tmp_path / "ledger"),
    )
    with FleetOrchestrator(
        profiles=ALL_PROFILES[:4],
        strategies=("sequential",),
        fleet_seed=7,
        workers=2,
        batch=1,
        base_config=FuzzConfig(max_packets=BUDGET),
        fault_plan=plan,
    ) as orchestrator:
        report = orchestrator.run()
    assert [campaign.index for campaign in report.quarantined] == [2]
    assert (
        _sha256(report.to_json()),
        _sha256(report.to_markdown()),
    ) == PINNED_QUARANTINE


def test_fleet_signature_is_pinned():
    assert _sweep(1)._fleet_signature() == PINNED_SIGNATURE
