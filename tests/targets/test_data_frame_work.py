"""Work counters for the data-frame fast path and signalling templates.

The SDP, OBEX and RFCOMM mutators draw with inlined ``getrandbits``
loops and assemble their payloads as bytes, and every data frame that
crosses the direct hop — fuzz frames from ``mutate_wire`` and the
upper-layer servers' responses — is built with its loopback verdict
already set. These counters pin both for one seeded campaign per
data-frame target: no ``Random.randrange`` or ``Random.randint`` call
from the mutators, and no ``loopback_view()`` recomputation on a
mutated frame or an engine data response.

The liveness pings and the engine's answers to them come from the
signalling template table, and the armed engine builds no trigger
context for a command no bug model can fire on: an armed campaign's
echo and information exchanges construct no packet through
``L2capPacket.__init__`` and no ``TriggerContext``. The table itself
holds only the templates its call sites make at import, however long
the fuzzing runs.
"""

from __future__ import annotations

import random
import sys

import pytest

import repro.core.detection as detection
import repro.stack.engine as engine_module
from repro.core.config import FuzzConfig
from repro.core.detection import VulnerabilityDetector
from repro.core.fleet import FleetOrchestrator
from repro.l2cap import packets
from repro.l2cap.constants import CommandCode
from repro.l2cap.packets import SIGNAL_TEMPLATES, L2capPacket, SignalTemplate
from repro.stack.engine import HostStackEngine
from repro.testbed.profiles import ALL_PROFILES, D1, D2
from repro.testbed.session import FuzzSession

#: The modules whose draws must be inlined: the three data-frame
#: mutators and the shared garbage-tail draw.
MUTATOR_MODULES = frozenset(
    {
        "repro.targets.sdp",
        "repro.targets.obex",
        "repro.targets.rfcomm",
        "repro.core.mutation",
    }
)


@pytest.fixture
def counters(monkeypatch):
    """Count the draws and loopback recomputations of one campaign."""
    counts = {"draws": 0, "responses": [], "recomputed": set(), "fuzz_frames": []}

    def counting(method):
        def wrapper(self, *args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") in MUTATOR_MODULES:
                counts["draws"] += 1
            return method(self, *args, **kwargs)

        return wrapper

    for name in ("randrange", "randint"):
        monkeypatch.setattr(random.Random, name, counting(getattr(random.Random, name)))

    loopback_view = L2capPacket.loopback_view

    def counted_loopback_view(self):
        if self.__dict__.get("_loopback") is None:
            counts["recomputed"].add(id(self))
        return loopback_view(self)

    monkeypatch.setattr(L2capPacket, "loopback_view", counted_loopback_view)

    handle_data_frame = HostStackEngine._handle_data_frame

    def recording_handle_data_frame(self, packet):
        responses = handle_data_frame(self, packet)
        counts["responses"].extend(responses)  # held: ids stay unique
        return responses

    monkeypatch.setattr(
        HostStackEngine, "_handle_data_frame", recording_handle_data_frame
    )
    return counts


@pytest.mark.parametrize("target", ["rfcomm", "sdp", "obex"])
def test_campaign_work(counters, target):
    session = FuzzSession(
        profile=D2, config=FuzzConfig(max_packets=1_500), armed=False, target=target
    )
    mutate_wire = session.fuzzer.mutator.mutate_wire

    def recording_mutate_wire(position, command, identifiers):
        batch = mutate_wire(position, command, identifiers)
        counters["fuzz_frames"].extend(batch)
        return batch

    session.fuzzer.mutator.mutate_wire = recording_mutate_wire
    report = session.run()

    assert report.packets_sent >= 1_500
    assert counters["fuzz_frames"] and counters["responses"]
    assert counters["draws"] == 0
    for packet in counters["fuzz_frames"] + counters["responses"]:
        assert packet.is_data_frame
        assert id(packet) not in counters["recomputed"]
        assert packet.loopback_view() is packet


@pytest.fixture
def exchange_work(monkeypatch):
    """Count packet constructions and trigger contexts made while a ping
    test runs or the engine answers an echo or information request."""
    counts = {"inside": 0, "pings": 0, "answers": 0, "inits": 0, "contexts": 0}

    def inside(kind, method):
        def wrapper(*args, **kwargs):
            counts[kind] += 1
            counts["inside"] += 1
            try:
                return method(*args, **kwargs)
            finally:
                counts["inside"] -= 1

        return wrapper

    monkeypatch.setattr(
        VulnerabilityDetector,
        "ping_test",
        inside("pings", VulnerabilityDetector.ping_test),
    )
    for code in (CommandCode.ECHO_REQ, CommandCode.INFORMATION_REQ):
        monkeypatch.setitem(
            HostStackEngine._HANDLERS,
            int(code),
            inside("answers", HostStackEngine._HANDLERS[int(code)]),
        )

    init = L2capPacket.__init__

    def counted_init(self, *args, **kwargs):
        if counts["inside"]:
            counts["inits"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(L2capPacket, "__init__", counted_init)
    trigger_context = engine_module.TriggerContext

    def counted_context(**kwargs):
        if counts["inside"]:
            counts["contexts"] += 1
        return trigger_context(**kwargs)

    monkeypatch.setattr(engine_module, "TriggerContext", counted_context)
    return counts


@pytest.mark.parametrize("profile", [D1, D2], ids=["D1", "D2"])
def test_armed_echo_and_information_exchanges_build_nothing(exchange_work, profile):
    session = FuzzSession(profile=profile, config=FuzzConfig(max_packets=2_000), armed=True)
    assert session.device.engine.vulnerabilities
    session.run()
    assert exchange_work["pings"] > 10
    assert exchange_work["answers"] >= exchange_work["pings"]
    assert exchange_work["inits"] == 0
    assert exchange_work["contexts"] == 0


def _call_site_templates() -> set[int]:
    """Ids of the templates the engine, the detector and the codec hold."""
    found = set()
    for module in (packets, engine_module, detection):
        for value in vars(module).values():
            members = value.values() if isinstance(value, dict) else (value,)
            found.update(
                id(member) for member in members if isinstance(member, SignalTemplate)
            )
    return found


def test_template_table_holds_only_call_site_templates(tmp_path):
    call_sites = _call_site_templates()
    before = dict(SIGNAL_TEMPLATES)
    assert {id(template) for template in before.values()} == call_sites

    FuzzSession(profile=D1, config=FuzzConfig(max_packets=2_000), armed=False).run()
    FleetOrchestrator(
        profiles=ALL_PROFILES,
        strategies=("sequential", "targeted"),
        fleet_seed=5,
        workers=1,
        base_config=FuzzConfig(max_packets=200),
        targets=("l2cap", "rfcomm", "sdp", "obex"),
        corpus_dir=str(tmp_path / "corpus"),
    ).run()

    assert SIGNAL_TEMPLATES == before
    assert {id(template) for template in SIGNAL_TEMPLATES.values()} == call_sites
