"""A forked target answers exactly as a fresh replay would.

Incremental ddmin sends a shared prefix to one base target, forks it
with ``VirtualDevice.fork(link)`` and sends each candidate's suffix to
the fork. That is sound only if "send k packets, fork, send the rest"
is indistinguishable from replaying the whole sequence on a fresh
target, and if the fork shares no mutable state with its base. Both
are checked per protocol target on armed devices, over the direct hop
and the bytes path, with packet sequences drawn from real campaign
traces.
"""

from __future__ import annotations

import dataclasses
import functools

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import FuzzConfig
from repro.core.triage import (
    ReplayOutcome,
    profile_target_factory,
    replay,
    sent_packets,
)
from repro.l2cap.constants import Psm
from repro.l2cap.packets import (
    configuration_request,
    configuration_response,
    connection_request,
    disconnection_request,
)
from repro.testbed.profiles import D2
from repro.testbed.session import FuzzSession

TARGETS = ("l2cap", "rfcomm", "sdp", "obex")


#: An L2CAP channel walked CLOSED → WAIT_CONFIG → WAIT_CONFIG_RSP → OPEN
#: → CLOSED by valid commands, one state change per packet: campaign
#: traces rarely change an existing channel's state on a later packet.
_CHANNEL_WALK = (
    connection_request(psm=Psm.SDP, scid=0x0070, identifier=1),
    configuration_request(dcid=0x0040, identifier=2),
    configuration_response(scid=0x0040, identifier=3),
    disconnection_request(dcid=0x0040, scid=0x0070, identifier=4),
)


@functools.lru_cache(maxsize=None)
def _campaign_packets(target: str) -> tuple:
    """The channel walk, then every packet an armed D2 campaign against
    *target* sent."""
    session = FuzzSession(
        profile=D2,
        config=FuzzConfig(seed=3, max_packets=300),
        armed=True,
        zero_latency=True,
        target=target,
    )
    session.run()
    return _CHANNEL_WALK + tuple(sent_packets(session.fuzzer.sniffer.trace))


def _factory(target: str, direct: bool):
    factory = profile_target_factory(D2, armed=True, fuzz_target=target)
    if direct:
        return factory

    def bytes_only():
        device, link = factory()
        link.attach(device.handle_acl_frame)
        return device, link

    return bytes_only


def _observable(device, link) -> tuple:
    """Everything a later packet or a reader of the target could see."""
    engine = device.engine
    mux = getattr(device, "rfcomm_mux", None)
    obex = getattr(device, "obex_server", None)
    return (
        dict(engine.transition_hits),
        list(engine.state_history),
        [dataclasses.astuple(block) for block in engine.channels.blocks()],
        engine.channels.version,
        engine._next_identifier,
        engine.crash,
        dataclasses.astuple(link.stats),
        link.is_up,
        list(link.inbound),
        device.clock.now,
        link.clock.now,
        list(device.crash_dumps),
        device._reassembler.pending_handles(),
        None
        if mux is None
        else (
            list(mux.state_history),
            {dlci: entry.state for dlci, entry in mux._dlcis.items()},
            mux.frames_accepted,
            mux.frames_rejected,
        ),
        None
        if obex is None
        else (obex.connected, dict(obex.inbox), obex.requests_seen),
    )


def _shifted(outcome: ReplayOutcome, offset: int) -> ReplayOutcome:
    """A suffix's outcome with indices counted from the whole sequence."""
    return dataclasses.replace(
        outcome,
        frames_replayed=outcome.frames_replayed + offset,
        trigger_index=None
        if outcome.trigger_index is None
        else outcome.trigger_index + offset,
    )


@st.composite
def _split_sequence(draw, target):
    """(packets, k): the opening packets of the pool, a few of them
    dropped (so handshakes mostly survive), and a split point that half
    the time falls inside the channel walk."""
    pool = _campaign_packets(target)
    end = draw(st.integers(1, len(pool)))
    drops = draw(st.sets(st.integers(0, end - 1), max_size=8))
    packets = [pool[index] for index in range(end) if index not in drops]
    split = st.one_of(
        st.integers(0, min(len(packets), len(_CHANNEL_WALK))),
        st.integers(0, len(packets)),
    )
    return packets, draw(split)


@pytest.mark.parametrize("direct", [True, False], ids=["direct", "bytes"])
@pytest.mark.parametrize("target", TARGETS)
class TestForkEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_fork_then_rest_equals_fresh_replay(self, target, direct, data):
        packets, k = data.draw(_split_sequence(target))
        factory = _factory(target, direct)

        fresh_target = factory()
        fresh = replay(packets, lambda: fresh_target)

        base = factory()
        head = replay(packets[:k], lambda: base)
        if head.crashed:
            # A crashing prefix is the whole story: nothing after it is sent.
            assert head == fresh
            return
        forked = base[0].fork(base[1])
        rest = _shifted(replay(packets[k:], lambda: forked), k)
        assert rest == fresh
        assert _observable(*forked) == _observable(*fresh_target)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_sending_to_the_fork_leaves_the_base_alone(self, target, direct, data):
        packets, k = data.draw(_split_sequence(target))
        base = _factory(target, direct)()
        if replay(packets[:k], lambda: base).crashed:
            return
        before = _observable(*base)
        forked = base[0].fork(base[1])
        replay(packets[k:], lambda: forked)
        assert _observable(*base) == before
