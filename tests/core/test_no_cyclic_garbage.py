"""Packets and finished campaigns are freed by reference counting.

No object on the packet path or in the campaign lifecycle may sit in a
reference cycle: a packet, a retained trace, a device or a session must
go the moment its last owner lets go, not when CPython's cyclic
collector next runs. Each check runs its workload once to warm the
first-use caches (mutation templates, response memos), then again with
the collector paused, drops the result, and requires that a full
collection finds nothing left to free.
"""

from __future__ import annotations

import collections
import copy
import gc
import pickle
import random

import pytest

from repro.core.config import FuzzConfig
from repro.core.mutation import CoreFieldMutator
from repro.core.triage import profile_target_factory, replay, shrink_trigger
from repro.corpus.store import _detection_prefix
from repro.l2cap import packets as codec
from repro.l2cap.packets import COMMAND_SPECS, L2capPacket
from repro.targets.base import wire_data_frame_fast
from repro.testbed.profiles import D2
from repro.testbed.session import FuzzSession

TARGETS = ("l2cap", "rfcomm", "sdp", "obex")


def _cyclic_garbage(workload) -> tuple[int, collections.Counter]:
    """(objects the cyclic GC frees, their type names) after *workload*."""
    workload()  # warm-up
    gc.collect()
    debug = gc.get_debug()
    saved = len(gc.garbage)
    gc.disable()
    try:
        workload()  # the result is dropped here
        gc.set_debug(debug | gc.DEBUG_SAVEALL)
        try:
            freed = gc.collect()
            kinds = collections.Counter(
                type(obj).__name__ for obj in gc.garbage[saved:]
            )
        finally:
            gc.set_debug(debug)
            del gc.garbage[saved:]
    finally:
        gc.enable()
    return freed, kinds


def _assert_no_cycles(workload) -> None:
    freed, kinds = _cyclic_garbage(workload)
    assert freed == 0, f"{freed} objects left to the cyclic GC: {kinds.most_common(8)}"


def _session(target: str, budget: int, armed: bool, retain: bool) -> FuzzSession:
    return FuzzSession(
        profile=D2,
        config=FuzzConfig(seed=3, max_packets=budget),
        armed=armed,
        zero_latency=True,
        retain_trace=retain,
        target=target,
    )


class TestCampaigns:
    @pytest.mark.parametrize("target", TARGETS)
    def test_armed_traced_campaign(self, target):
        def campaign():
            session = _session(target, 200, armed=True, retain=True)
            session.run()
            return session

        _assert_no_cycles(campaign)

    def test_streaming_campaign(self):
        def campaign():
            session = _session("l2cap", 2_000, armed=False, retain=False)
            session.run()
            return session

        _assert_no_cycles(campaign)

    def test_shrink_trigger_on_real_finding(self):
        session = _session("l2cap", 2_000, armed=True, retain=True)
        report = session.run()
        assert report.findings, "the armed D2 campaign must find its bug"
        prefix = _detection_prefix(
            session.fuzzer.sniffer.sent_packets(), report.findings[0]
        )
        factory = profile_target_factory(D2, armed=True)
        outcome = replay(prefix, factory)
        assert outcome.crashed

        def shrink():
            minimal, _ = shrink_trigger(prefix, factory, outcome)
            assert len(minimal) < len(prefix)
            return minimal

        _assert_no_cycles(shrink)


def _every_packet() -> list[L2capPacket]:
    """Packets from every builder and every construction path."""
    made = [
        codec.connection_request(psm=0x0001, scid=0x0040),
        codec.configuration_request(dcid=0x0040),
        codec.configuration_response(scid=0x0040),
        codec.disconnection_request(dcid=0x0040, scid=0x0041),
        codec.echo_request(b"ping"),
        codec.information_request(),
        codec.create_channel_request(psm=0x0001, scid=0x0040),
        codec.move_channel_request(icid=0x0040),
        codec.command_reject(reason=0, identifier=1),
        wire_data_frame_fast(0x0040, b"payload"),
    ]
    made += [codec.default_packet(code) for code in COMMAND_SPECS]
    mutator = CoreFieldMutator(FuzzConfig(), random.Random(5))
    for code in COMMAND_SPECS:
        made.append(mutator.mutate(None, code, 7))
        (wire,) = mutator.mutate_wire(None, code, (7,))
        if wire is not None:
            made.append(wire)
    made += [L2capPacket.decode(packet.encode()) for packet in list(made)]
    # The builder every constructor ends in, with the encode cache
    # primed the way the mutator's bytes-level fast path primes it.
    made += [
        codec._packet(
            packet.code,
            packet.identifier,
            dict(packet.fields),
            packet.tail,
            packet.garbage,
            packet.header_cid,
            None,
            None,
            packet.spec,
            packet.encode(),
            None,
            None,
        )
        for packet in list(made)
    ]
    copies = []
    for packet in made:
        copies.append(copy.copy(packet))
        copies.append(copy.deepcopy(packet))
        copies.append(pickle.loads(pickle.dumps(packet)))
        copies.append(packet.replace(fields={**packet.fields, "probe": 1}))
    for packet in copies:
        packet.encode()
    return made + copies


class TestPackets:
    def test_every_construction_path(self):
        _assert_no_cycles(_every_packet)
