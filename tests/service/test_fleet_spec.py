"""One fleet spec through every door: ``repro fleet``, the service and
the orchestrator.

A fleet job is a :class:`~repro.core.config.FleetSpec`, checked by
:meth:`~repro.core.config.FleetSpec.validate` alone. So a bad spec is
refused with the same text by ``repro fleet`` (exit message), by the
control plane (HTTP 400, no job, no charge) and by
:class:`~repro.core.fleet.FleetOrchestrator` (``ValueError`` at
construction), and the shared flags parse to the same spec in both
subcommands.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.cli import _fleet_spec, build_parser, main
from repro.core.config import FleetSpec, FleetSpecError, FuzzConfig
from repro.core.fleet import FleetOrchestrator
from repro.l2cap.states import INITIATOR_ONLY_STATES, ChannelState
from repro.service import ControlPlaneThread, ServiceClient, ServiceConfig, ServiceError
from repro.service.jobs import JobRecord, JobSpec, JobValidationError
from repro.testbed.profiles import PROFILES_BY_ID

TENANT = "doors"

#: A spec every door admits; each row below breaks one thing in it.
GOOD = FleetSpec(profiles=("D1",), strategies=("sequential",), budget=40)
GOOD_FLAGS = ["--profiles", "D1", "--strategies", "sequential", "--budget", "40"]

#: (flags appended to GOOD_FLAGS, FleetSpec fields, the refusal text).
BAD_SPECS = {
    "unknown-profile": (
        ["--profiles", "D99"],
        {"profiles": ("D99",)},
        "unknown profile 'D99'; choose from D1, D2, D3, D4, D5, D6, D7, D8",
    ),
    "unknown-strategy": (
        ["--strategies", "warp"],
        {"strategies": ("warp",)},
        "unknown strategy 'warp'; choose from sequential, breadth_first, "
        "depth_first, targeted, coverage_guided",
    ),
    "unknown-target": (
        ["--targets", "zigbee"],
        {"targets": ("zigbee",)},
        "unknown fuzz target 'zigbee'; choose from l2cap, rfcomm, sdp, obex",
    ),
    "zero-budget": (["--budget", "0"], {"budget": 0}, "budget must be >= 1 packet"),
    "zero-batch": (["--batch", "0"], {"batch": 0}, "batch must be >= 1"),
    "unknown-state": (
        ["--target-state", "imagined"],
        {"target_state": "IMAGINED"},
        "unknown target state 'IMAGINED'",
    ),
    "unroutable-target": (
        ["--strategies", "targeted", "--target-state", "wait_connect_rsp"],
        {"strategies": ("targeted",), "target_state": "WAIT_CONNECT_RSP"},
        "target state WAIT_CONNECT_RSP cannot be targeted: no acceptor-side "
        "route from CLOSED to WAIT_CONNECT_RSP",
    ),
}


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    config = ServiceConfig(
        data_dir=tmp_path_factory.mktemp("fleet-spec"), port=0, pool_workers=1
    )
    with ControlPlaneThread(config) as live:
        yield live


def _cli_refusal(argv: list[str]) -> str:
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    return str(excinfo.value.code)


def _orchestrator_refusal(spec: FleetSpec, tmp_path) -> str:
    """Build the orchestrator from objects, as a library caller does."""
    profiles = [
        PROFILES_BY_ID.get(device_id)
        or dataclasses.replace(PROFILES_BY_ID["D1"], device_id=device_id)
        for device_id in spec.profiles
    ]
    # FuzzConfig refuses a zero budget itself, so smuggle it past.
    base_config = FuzzConfig()
    object.__setattr__(base_config, "max_packets", spec.budget)
    with pytest.raises(ValueError) as excinfo:
        FleetOrchestrator(
            profiles=profiles,
            strategies=spec.strategies,
            targets=spec.targets,
            fleet_seed=spec.seed,
            base_config=base_config,
            armed=spec.armed,
            target_state=(
                ChannelState(spec.target_state)
                if spec.target_state in ChannelState.__members__
                else _UnknownState(spec.target_state)
            ),
            batch=spec.batch,
            telemetry_dir=str(tmp_path / "runs"),
        )
    # Refused at construction: no telemetry run directory was made.
    assert not (tmp_path / "runs").exists()
    return str(excinfo.value)


@dataclasses.dataclass(frozen=True)
class _UnknownState:
    """A stand-in for a state the enum does not have."""

    value: str


@pytest.mark.parametrize("row", sorted(BAD_SPECS))
def test_bad_spec_is_refused_alike_by_every_door(row, server, tmp_path):
    flags, fields, text = BAD_SPECS[row]
    spec = dataclasses.replace(GOOD, **fields)

    assert _cli_refusal(["fleet", *GOOD_FLAGS, *flags]) == text

    client = ServiceClient(server.base_url, tenant=TENANT)
    committed = server.app.registry.packets_committed(TENANT)
    jobs = client.jobs()
    with pytest.raises(ServiceError) as excinfo:
        client.submit({**spec.to_dict(), "priority": 5, "use_corpus": False})
    assert excinfo.value.status == 400
    assert excinfo.value.message == text
    submit = ["jobs", "submit", "--url", server.base_url, "--tenant", TENANT]
    assert _cli_refusal([*submit, *GOOD_FLAGS, *flags]) == f"[400] {text}"
    assert client.jobs() == jobs
    assert server.app.registry.packets_committed(TENANT) == committed

    assert _orchestrator_refusal(spec, tmp_path) == text


@pytest.mark.parametrize("count", ["0", "99"])
def test_profile_count_is_refused_alike_by_both_commands(count, server):
    text = f"--profiles count must be 1..8, got {count}"
    assert _cli_refusal(["fleet", "--profiles", count]) == text
    submit = ["jobs", "submit", "--url", server.base_url, "--tenant", TENANT]
    assert _cli_refusal([*submit, "--profiles", count]) == text


def test_shared_flags_parse_to_one_spec():
    line = [
        "--profiles", "d2,D5", "--strategies", "sequential,targeted",
        "--targets", "l2cap,rfcomm", "--budget", "900", "--seed", "3",
        "--disarm", "--target-state", "wait_config", "--batch", "2",
    ]
    parser = build_parser()
    fleet = _fleet_spec(parser.parse_args(["fleet", *line]))
    submit = _fleet_spec(
        parser.parse_args(["jobs", "submit", "--tenant", "t", *line])
    )
    assert fleet == submit == FleetSpec(
        profiles=("D2", "D5"),
        strategies=("sequential", "targeted"),
        targets=("l2cap", "rfcomm"),
        budget=900,
        seed=3,
        armed=False,
        target_state="WAIT_CONFIG",
        batch=2,
    )
    # A count means the first N testbed profiles in both commands.
    assert _fleet_spec(
        parser.parse_args(["jobs", "submit", "--tenant", "t", "--profiles", "2"])
    ).profiles == ("D1", "D2")


def test_each_command_keeps_its_defaults():
    parser = build_parser()
    fleet = _fleet_spec(parser.parse_args(["fleet"]))
    submit = _fleet_spec(parser.parse_args(["jobs", "submit", "--tenant", "t"]))
    assert (fleet.profiles, fleet.budget) == (("D1", "D2", "D3", "D4"), 3000)
    assert (submit.profiles, submit.budget) == (("D1",), 600)


@pytest.mark.parametrize(
    "state", sorted(INITIATOR_ONLY_STATES, key=lambda state: state.value)
)
def test_targeted_job_at_an_unroutable_state_is_never_admitted(state, server):
    """No job, no packet charge — not a run whose every campaign is
    quarantined, nor an aborted job holding its charge."""
    client = ServiceClient(server.base_url, tenant=TENANT)
    committed = server.app.registry.packets_committed(TENANT)
    body = {
        "profiles": ["D1"],
        "strategies": ["targeted"],
        "budget": 40,
        "target_state": state.value,
    }
    with pytest.raises(ServiceError) as excinfo:
        client.submit(body)
    assert excinfo.value.status == 400
    assert "cannot be targeted" in excinfo.value.message
    assert server.app.registry.packets_committed(TENANT) == committed
    with pytest.raises(FleetSpecError, match="no acceptor-side route"):
        FleetOrchestrator(
            profiles=[PROFILES_BY_ID["D1"]],
            strategies=["targeted"],
            target_state=state,
        )


def test_targeted_at_a_routable_state_is_admitted():
    JobSpec(
        tenant="alpha",
        profiles=("D1",),
        strategies=("targeted",),
        target_state="WAIT_CONFIG",
    ).validate()


@pytest.mark.parametrize(
    "field, value, shape",
    [
        ("armed", "false", "a boolean"),
        ("use_corpus", "no", "a boolean"),
        ("profiles", "D1", "a list of strings"),
        ("strategies", ["sequential", 3], "a list of strings"),
        ("budget", 12.9, "an integer"),
        ("budget", True, "an integer"),
        ("seed", "7", "an integer"),
        ("priority", True, "an integer"),
        ("batch", 2.0, "an integer or null"),
        ("target_state", 5, "a string"),
    ],
)
def test_wrong_json_types_are_refused_not_coerced(field, value, shape, server):
    body = {"profiles": ["D1"], "budget": 40, field: value}
    text = f"{field} must be {shape}, got {value!r}"
    with pytest.raises(JobValidationError) as excinfo:
        JobSpec.from_dict({"tenant": TENANT, **body})
    assert str(excinfo.value) == text
    client = ServiceClient(server.base_url, tenant=TENANT)
    jobs = client.jobs()
    with pytest.raises(ServiceError) as excinfo:
        client.submit(body)
    assert (excinfo.value.status, excinfo.value.message) == (400, text)
    assert client.jobs() == jobs


def test_one_error_type_for_both_layers():
    assert JobValidationError is FleetSpecError
    assert issubclass(FleetSpecError, ValueError)


#: A job manifest exactly as the previous release's JobRecord.to_dict
#: wrote it (flat spec keys, lists for the name tuples).
PARENT_MANIFEST = json.loads(
    """
{
    "auto_resume_attempts": 0,
    "campaigns": 4,
    "created": 1767225600.0,
    "created_at": "2026-01-01T00:00:00+00:00",
    "error": null,
    "findings": 0,
    "finished": 1767225605.0,
    "finished_at": "2026-01-01T00:00:05+00:00",
    "idempotency_key": "k1",
    "job_id": "job-20260101-000000-0badcafe",
    "merged_state_count": 9,
    "packets": 1000,
    "quota_refunded": false,
    "resume_of": null,
    "run_id": "20260101-000001-abc123",
    "schema": 1,
    "spec": {
        "armed": false,
        "batch": 2,
        "budget": 250,
        "priority": 3,
        "profiles": ["D1", "D2"],
        "seed": 11,
        "strategies": ["sequential", "targeted"],
        "target_state": "WAIT_CONFIG",
        "targets": ["l2cap"],
        "tenant": "alpha",
        "use_corpus": true
    },
    "started": 1767225601.0,
    "started_at": "2026-01-01T00:00:01+00:00",
    "status": "finished"
}
"""
)


def test_manifest_written_by_the_previous_release_loads():
    record = JobRecord.from_dict(PARENT_MANIFEST)
    assert record.spec == JobSpec(
        tenant="alpha",
        profiles=("D1", "D2"),
        strategies=("sequential", "targeted"),
        targets=("l2cap",),
        budget=250,
        seed=11,
        armed=False,
        priority=3,
        use_corpus=True,
        target_state="WAIT_CONFIG",
        batch=2,
    )
    record.spec.validate()
    assert record.to_dict() == PARENT_MANIFEST
