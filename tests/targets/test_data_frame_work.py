"""Work counters for the data-frame fast path.

The SDP, OBEX and RFCOMM mutators draw with inlined ``getrandbits``
loops and assemble their payloads as bytes, and every data frame that
crosses the direct hop — fuzz frames from ``mutate_wire`` and the
upper-layer servers' responses — is built with its loopback verdict
already set. These counters pin both for one seeded campaign per
data-frame target: no ``Random.randrange`` or ``Random.randint`` call
from the mutators, and no ``loopback_view()`` recomputation on a
mutated frame or an engine data response.
"""

from __future__ import annotations

import random
import sys

import pytest

from repro.core.config import FuzzConfig
from repro.l2cap.packets import L2capPacket
from repro.stack.engine import HostStackEngine
from repro.testbed.profiles import D2
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

    def recording_mutate_wire(position, command, identifier):
        packet = mutate_wire(position, command, identifier)
        counters["fuzz_frames"].append(packet)
        return packet

    session.fuzzer.mutator.mutate_wire = recording_mutate_wire
    report = session.run()

    assert report.packets_sent >= 1_500
    assert counters["fuzz_frames"] and counters["responses"]
    assert counters["draws"] == 0
    for packet in counters["fuzz_frames"] + counters["responses"]:
        assert packet.is_data_frame
        assert id(packet) not in counters["recomputed"]
        assert packet.loopback_view() is packet
