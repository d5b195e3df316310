"""Property-based robustness tests for the host-stack engine.

A virtual stack must uphold its invariants under *any* packet stream —
random field values, random codes, garbage, length lies — because that
is precisely what fuzzers throw at it.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.l2cap.constants import CommandCode, SIGNALING_CID
from repro.l2cap.packets import COMMAND_SPECS, L2capPacket
from repro.l2cap.states import ACCEPTOR_REACHABLE_STATES
from repro.stack.vendors import BLUEDROID, BLUEZ, IOS_STACK, RTKIT

from tests.stack.engine_helpers import make_engine


@st.composite
def _arbitrary_packet(draw):
    """Any signaling packet: valid layouts, random values, random junk."""
    code = draw(
        st.one_of(
            st.sampled_from(sorted(COMMAND_SPECS)),
            st.integers(min_value=0, max_value=255),
        )
    )
    fields = {}
    spec = None
    try:
        spec = COMMAND_SPECS[CommandCode(code)]
    except ValueError:
        pass
    if spec is not None:
        for field in spec.fields:
            fields[field.name] = draw(
                st.integers(min_value=0, max_value=field.max_value)
            )
    packet = L2capPacket(
        code=code,
        identifier=draw(st.integers(min_value=0, max_value=255)),
        fields=fields,
        tail=draw(st.binary(max_size=16)),
        garbage=draw(st.binary(max_size=16)),
        header_cid=draw(
            st.sampled_from([SIGNALING_CID, SIGNALING_CID, 0x0002, 0x0040, 0x9999])
        ),
    )
    if draw(st.booleans()):
        packet = packet.replace(
            declared_data_len=draw(st.integers(min_value=0, max_value=64))
        )
    return packet


_streams = st.lists(_arbitrary_packet(), min_size=1, max_size=30)
_personalities = st.sampled_from([BLUEDROID, BLUEZ, IOS_STACK, RTKIT])


class TestEngineInvariants:
    @given(_streams, _personalities)
    @settings(max_examples=150, deadline=None)
    def test_disarmed_engine_never_crashes(self, stream, personality):
        engine = make_engine(personality, armed=False)
        for packet in stream:
            engine.handle_l2cap(packet)
        assert engine.crash is None

    @given(_streams, _personalities)
    @settings(max_examples=100, deadline=None)
    def test_responses_always_encodable_and_decodable(self, stream, personality):
        engine = make_engine(personality, armed=False)
        for packet in stream:
            for response in engine.handle_l2cap(packet):
                assert L2capPacket.decode(response.encode()).code == response.code

    @given(_streams, _personalities)
    @settings(max_examples=100, deadline=None)
    def test_channel_capacity_never_exceeded(self, stream, personality):
        engine = make_engine(personality, armed=False)
        for packet in stream:
            engine.handle_l2cap(packet)
            assert len(engine.channels) <= personality.max_channels

    @given(_streams, _personalities)
    @settings(max_examples=100, deadline=None)
    def test_visited_states_are_acceptor_reachable(self, stream, personality):
        """A passive acceptor can never enter an initiator-only state —
        the structural fact behind the 13-state coverage ceiling."""
        engine = make_engine(personality, armed=False)
        for packet in stream:
            engine.handle_l2cap(packet)
        visited = {visit.state for visit in engine.state_history}
        assert visited <= ACCEPTOR_REACHABLE_STATES

    @given(_streams, _personalities)
    @settings(max_examples=100, deadline=None)
    def test_responses_echo_request_identifier(self, stream, personality):
        """Every direct response carries the identifier of its request
        (device-initiated requests use the engine's own id space)."""
        engine = make_engine(personality, armed=False)
        for packet in stream:
            responses = engine.handle_l2cap(packet)
            direct = [
                r
                for r in responses
                if r.code
                in (
                    CommandCode.COMMAND_REJECT,
                    CommandCode.CONNECTION_RSP,
                    CommandCode.CONFIGURATION_RSP,
                    CommandCode.DISCONNECTION_RSP,
                    CommandCode.ECHO_RSP,
                    CommandCode.INFORMATION_RSP,
                    CommandCode.CREATE_CHANNEL_RSP,
                    CommandCode.MOVE_CHANNEL_RSP,
                    CommandCode.MOVE_CHANNEL_CONFIRMATION_RSP,
                )
            ]
            if direct:
                assert direct[0].identifier == packet.identifier & 0xFF

    @given(_streams)
    @settings(max_examples=100, deadline=None)
    def test_hardened_stack_never_parses_garbage(self, stream):
        """A garbage-tailed signaling packet never reaches a hardened
        stack's handlers: the answer is always a Command Reject."""
        engine = make_engine(IOS_STACK, armed=False)
        for packet in stream:
            if packet.header_cid != SIGNALING_CID or not packet.garbage:
                continue
            responses = engine.handle_l2cap(packet)
            assert len(responses) == 1
            assert responses[0].code == CommandCode.COMMAND_REJECT

    @given(_streams, _personalities)
    @settings(max_examples=75, deadline=None)
    def test_transition_coverage_monotone(self, stream, personality):
        engine = make_engine(personality, armed=False)
        seen = 0
        for packet in stream:
            engine.handle_l2cap(packet)
            current = len(engine.transition_coverage())
            assert current >= seen
            seen = current
