"""The one-pass journal decode reads exactly what the per-line loop reads.

``read_events`` decodes an intact journal as one JSON array, so every
event shares its key strings with the others; anything else falls back
to the line-by-line loop. The reference here is that loop, verbatim.
"""

from __future__ import annotations

import json

import pytest

from repro.core.config import FuzzConfig
from repro.core.fleet import FleetOrchestrator
from repro.telemetry import EVENTS_FILENAME, read_events
from repro.testbed.profiles import ALL_PROFILES


def _per_line(raw: str, source: str) -> list[dict]:
    """Reference decoder: one ``json.loads`` per line."""
    events = []
    lines = raw.split("\n")
    for position, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError:
            if position >= len(lines) - 2:
                continue
            raise ValueError(
                f"corrupt journal line {position + 1} in {source}"
            ) from None
    return events


def _both(path) -> tuple[object, object]:
    """(one-pass result, reference result); an error counts as a result."""
    results = []
    for decode in (
        lambda: read_events(path),
        lambda: _per_line(path.read_text(encoding="utf-8"), str(path)),
    ):
        try:
            results.append(decode())
        except ValueError as error:
            results.append(("ValueError", str(error)))
    return tuple(results)


@pytest.fixture(scope="module")
def fleet_journal(tmp_path_factory) -> str:
    """The merged journal text of one real armed fleet run."""
    runs = tmp_path_factory.mktemp("runs")
    orchestrator = FleetOrchestrator(
        profiles=ALL_PROFILES[:4],
        strategies=("sequential", "targeted"),
        fleet_seed=3,
        workers=1,
        base_config=FuzzConfig(max_packets=200),
        armed=True,
        targets=("l2cap", "rfcomm"),
        telemetry_dir=str(runs),
    )
    with orchestrator:
        orchestrator.run()
    return (orchestrator.run_dir / EVENTS_FILENAME).read_text(encoding="utf-8")


def test_fleet_journal_decodes_identically(tmp_path, fleet_journal):
    path = tmp_path / EVENTS_FILENAME
    path.write_text(fleet_journal, encoding="utf-8")
    one_pass, reference = _both(path)
    assert len(reference) > 20
    assert one_pass == reference
    # Same order of keys, event by event, and the keys are shared.
    assert [list(event) for event in one_pass] == [
        list(event) for event in reference
    ]
    first, second = one_pass[0], one_pass[1]
    assert next(iter(first)) is next(iter(second))


def _lines(fleet_journal: str) -> list[str]:
    return fleet_journal.rstrip("\n").split("\n")


@pytest.mark.parametrize(
    "mangle",
    [
        pytest.param(lambda lines: "\n\n".join(lines) + "\n\n  \n", id="blank-lines"),
        pytest.param(lambda lines: "\n".join(lines), id="no-final-newline"),
        pytest.param(
            lambda lines: "\n".join(lines) + "\n" + lines[-1][:17], id="torn-tail"
        ),
        pytest.param(
            lambda lines: "\n".join(lines) + "\n" + lines[-1][:17] + "\n",
            id="torn-tail-newline",
        ),
        pytest.param(
            lambda lines: "\n".join(lines[:5] + [lines[5][:30]] + lines[6:]) + "\n",
            id="corrupt-middle",
        ),
        pytest.param(
            lambda lines: "\n".join(lines[:5] + [lines[5] + "," + lines[6]] + lines[7:])
            + "\n",
            id="two-values-on-a-line",
        ),
        pytest.param(
            lambda lines: "\n".join(lines[:5] + [lines[5][:30] + lines[6]] + lines[7:])
            + "\n",
            id="torn-then-appended",
        ),
        pytest.param(lambda lines: "\n", id="only-blank"),
    ],
)
def test_damaged_journal_matches_per_line_loop(tmp_path, fleet_journal, mangle):
    path = tmp_path / EVENTS_FILENAME
    path.write_text(mangle(_lines(fleet_journal)), encoding="utf-8")
    one_pass, reference = _both(path)
    assert one_pass == reference


def test_corrupt_middle_line_error_names_the_line(tmp_path, fleet_journal):
    lines = _lines(fleet_journal)
    lines[3] = lines[3][:25]
    path = tmp_path / EVENTS_FILENAME
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"^corrupt journal line 4 in "):
        read_events(path)
