"""Tests for the injected bug models (the five paper zero-days)."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TargetCrashedError
from repro.l2cap.constants import CommandCode
from repro.l2cap.jobs import Job, job_of
from repro.l2cap.packets import (
    COMMAND_SPECS,
    echo_request,
    L2capPacket,
    configuration_request,
    connection_request,
    create_channel_request,
    disconnection_request,
)
from repro.l2cap.states import ChannelState
from repro.stack.crash import CrashKind, DumpKind
from repro.stack.vulnerabilities import (
    BLUEDROID_CIDP_NULL_DEREF,
    BLUEDROID_CREATE_CHANNEL_DOS,
    BLUEZ_GPF,
    KNOWN_VULNERABILITIES,
    RTKIT_PSM_SHUTDOWN,
    TriggerContext,
    VulnerabilityModel,
)
from tests.stack.engine_helpers import make_engine, open_channel


def _context(
    packet,
    state=ChannelState.WAIT_CONFIG,
    job=Job.CONFIGURATION,
    allocated=frozenset(),
    live_states=frozenset(),
):
    return TriggerContext(
        packet=packet,
        state=state,
        job=job,
        allocated_cids=allocated,
        live_states=live_states,
    )


class TestCidpNullDeref:
    """D1/D2: the paper's §IV.E case study."""

    def _trigger_packet(self):
        packet = configuration_request(dcid=0x0040)
        packet = packet.replace(garbage=bytes.fromhex("D23A910E"))
        return packet

    def test_fires_in_configuration_job(self):
        assert BLUEDROID_CIDP_NULL_DEREF.check(_context(self._trigger_packet()))

    def test_fires_in_open_state(self):
        context = _context(
            self._trigger_packet(), state=ChannelState.OPEN, job=Job.OPEN
        )
        assert BLUEDROID_CIDP_NULL_DEREF.check(context)

    def test_requires_garbage(self):
        packet = configuration_request(dcid=0x0040)
        assert not BLUEDROID_CIDP_NULL_DEREF.check(_context(packet))

    def test_requires_unallocated_dcid(self):
        packet = self._trigger_packet()
        context = _context(packet, allocated=frozenset({0x0040}))
        assert not BLUEDROID_CIDP_NULL_DEREF.check(context)

    def test_does_not_fire_outside_config(self):
        context = _context(
            self._trigger_packet(), state=ChannelState.CLOSED, job=Job.CLOSED
        )
        assert not BLUEDROID_CIDP_NULL_DEREF.check(context)

    def test_wrong_command_does_not_fire(self):
        packet = connection_request(psm=1, scid=0x40)
        packet = packet.replace(garbage=b"\x01")
        assert not BLUEDROID_CIDP_NULL_DEREF.check(_context(packet))

    def test_fire_produces_dos_tombstone(self):
        context = _context(self._trigger_packet())
        crash = BLUEDROID_CIDP_NULL_DEREF.fire(context, sim_time=85.0)
        assert crash.kind is CrashKind.DOS
        assert crash.fault_address == 0x20
        assert "l2c_csm_execute" in crash.function
        assert crash.sim_time == 85.0


class TestCreateChannelDos:
    """D3: Wait-Create DoS via malformed Create Channel Request."""

    def _trigger_packet(self, cont_id=5, scid=0x0040):
        packet = create_channel_request(psm=1, scid=scid, cont_id=cont_id)
        packet = packet.replace(garbage=b"\xff\xff")
        return packet

    def test_fires_during_creation_with_pending_channel(self):
        context = _context(
            self._trigger_packet(),
            state=ChannelState.WAIT_CREATE,
            job=Job.CREATION,
            live_states=frozenset({ChannelState.WAIT_CONFIG}),
        )
        assert BLUEDROID_CREATE_CHANNEL_DOS.check(context)

    def test_needs_a_half_created_channel(self):
        context = _context(
            self._trigger_packet(), state=ChannelState.WAIT_CREATE, job=Job.CREATION
        )
        assert not BLUEDROID_CREATE_CHANNEL_DOS.check(context)

    def test_needs_bogus_controller(self):
        context = _context(
            self._trigger_packet(cont_id=0),
            live_states=frozenset({ChannelState.WAIT_CONFIG}),
        )
        assert not BLUEDROID_CREATE_CHANNEL_DOS.check(context)

    def test_needs_aligned_scid(self):
        context = _context(
            self._trigger_packet(scid=0x0041),
            live_states=frozenset({ChannelState.WAIT_CONFIG}),
        )
        assert not BLUEDROID_CREATE_CHANNEL_DOS.check(context)


class TestRtkitPsmShutdown:
    """D5: abnormal-PSM crash, silent death."""

    def test_fires_on_odd_msb_psm(self):
        packet = connection_request(psm=0x0300, scid=0x40)
        assert RTKIT_PSM_SHUTDOWN.check(_context(packet, job=Job.CLOSED))

    def test_even_abnormal_psm_does_not_fire(self):
        packet = connection_request(psm=0x0044, scid=0x40)
        assert not RTKIT_PSM_SHUTDOWN.check(_context(packet))

    def test_valid_psm_does_not_fire(self):
        packet = connection_request(psm=0x0001, scid=0x40)
        assert not RTKIT_PSM_SHUTDOWN.check(_context(packet))

    def test_create_channel_also_vulnerable(self):
        packet = create_channel_request(psm=0x0500, scid=0x40)
        assert RTKIT_PSM_SHUTDOWN.check(_context(packet))

    def test_crash_is_silent(self):
        packet = connection_request(psm=0x0300, scid=0x40)
        crash = RTKIT_PSM_SHUTDOWN.fire(_context(packet), sim_time=40.0)
        assert crash.silent
        assert not crash.leaves_dump


class TestBluezGpf:
    """D8: rare general protection fault (2h40m-class discovery time)."""

    def _aligned_dcid(self):
        for dcid in range(0x0040, 0x10000):
            if (dcid * 0x9E37) % 0xFFFF < 22:
                return dcid
        pytest.fail("no aligned dcid found")

    def test_fires_only_in_narrow_window(self):
        dcid = self._aligned_dcid()
        packet = disconnection_request(dcid=dcid, scid=0x9999)
        packet = packet.replace(garbage=b"\x00")
        assert BLUEZ_GPF.check(_context(packet))

    def test_unaligned_dcid_does_not_fire(self):
        packet = disconnection_request(dcid=0x0041, scid=0x9999)
        packet = packet.replace(garbage=b"\x00")
        if (0x0041 * 0x9E37) % 0xFFFF < 22:
            pytest.skip("0x41 happens to be aligned")
        assert not BLUEZ_GPF.check(_context(packet))

    def test_requires_both_cids_unallocated(self):
        dcid = self._aligned_dcid()
        packet = disconnection_request(dcid=dcid, scid=0x9999)
        packet = packet.replace(garbage=b"\x00")
        context = _context(packet, allocated=frozenset({dcid}))
        assert not BLUEZ_GPF.check(context)

    def test_window_is_rare(self):
        hits = sum(
            1 for dcid in range(0x0040, 0x10000) if (dcid * 0x9E37) % 0xFFFF < 22
        )
        assert hits < 0x10000 / 2000  # rarer than 1 in 2000


class TestRegistry:
    def test_four_bug_models_registered(self):
        assert len(KNOWN_VULNERABILITIES) == 4

    def test_ids_match_keys(self):
        for key, model in KNOWN_VULNERABILITIES.items():
            assert key == model.vulnerability_id


class TestEngineBugFacts:
    """The engine caches a check's allocated CIDs and live states against
    the channel table's version; every table change must still show."""

    @staticmethod
    def _recording_engine():
        seen = []

        def record(context: TriggerContext) -> bool:
            seen.append((context.allocated_cids, context.live_states))
            return False

        recorder = VulnerabilityModel(
            vulnerability_id="recorder",
            description="never fires",
            predicate=record,
            kind=CrashKind.DOS,
            dump_kind=DumpKind.NONE,
            function="record",
        )
        return make_engine(vulnerabilities=(recorder,)), seen

    @staticmethod
    def _facts_now(engine):
        return (
            frozenset(block.local_cid for block in engine.channels.blocks()),
            frozenset(block.state for block in engine.channels.blocks()),
        )

    def _probe(self, engine, seen):
        before = len(seen)
        engine.handle_l2cap(echo_request(b"probe"))
        # A model with the default codes sees every echo probe.
        assert len(seen) == before + 1
        assert seen[-1] == self._facts_now(engine)
        return seen[-1]

    def test_allocate_state_change_and_release_show(self):
        engine, seen = self._recording_engine()
        assert self._probe(engine, seen) == (frozenset(), frozenset())

        cid, _ = open_channel(engine)
        assert self._probe(engine, seen) == (
            frozenset({cid}),
            frozenset({ChannelState.WAIT_CONFIG}),
        )

        engine.handle_l2cap(configuration_request(dcid=cid))
        assert self._probe(engine, seen) == (
            frozenset({cid}),
            frozenset({ChannelState.WAIT_CONFIG_RSP}),
        )

        engine.handle_l2cap(disconnection_request(dcid=cid, scid=0x0060))
        assert self._probe(engine, seen) == (frozenset(), frozenset())

    def test_unchanged_table_reuses_the_facts(self):
        engine, seen = self._recording_engine()
        open_channel(engine)
        first = self._probe(engine, seen)
        second = self._probe(engine, seen)
        assert first[0] is second[0] and first[1] is second[1]


#: The four paper models, in registry order.
PAPER_MODELS = tuple(KNOWN_VULNERABILITIES.values())


def _aligned_gpf_dcid() -> int:
    return next(
        dcid for dcid in range(0x0040, 0x10000) if (dcid * 0x9E37) % 0xFFFF < 22
    )


def _firing_contexts():
    """One context per paper model on which that model fires."""
    cidp = configuration_request(dcid=0x0040)
    cidp = cidp.replace(garbage=b"\xd2")
    create = create_channel_request(psm=0x0301, scid=0x0044, cont_id=7)
    create = create.replace(garbage=b"\x00")
    gpf = disconnection_request(dcid=_aligned_gpf_dcid(), scid=0x9999)
    gpf = gpf.replace(garbage=b"\x00")
    live = frozenset({ChannelState.WAIT_CONFIG})
    return {
        BLUEDROID_CIDP_NULL_DEREF: _context(cidp),
        BLUEDROID_CREATE_CHANNEL_DOS: _context(create, live_states=live),
        RTKIT_PSM_SHUTDOWN: _context(connection_request(psm=0x0300, scid=0x40)),
        BLUEZ_GPF: _context(gpf),
    }


@st.composite
def _trigger_contexts(draw):
    """Accepted-looking packets of any code, in any state, with varied
    allocated CIDs and live channel states."""
    code = draw(st.sampled_from(sorted(COMMAND_SPECS)))
    values = st.one_of(
        st.integers(min_value=0x0040, max_value=0x0048),
        st.integers(min_value=0, max_value=0xFFFF),
    )
    fields = {
        field.name: draw(values) & field.max_value
        for field in COMMAND_SPECS[code].fields
    }
    packet = L2capPacket(
        code,
        draw(st.integers(min_value=0, max_value=255)),
        fields,
        garbage=draw(st.binary(max_size=3)),
    )
    state = draw(st.one_of(st.none(), st.sampled_from(list(ChannelState))))
    return TriggerContext(
        packet=packet,
        state=state,
        job=None if state is None else job_of(state),
        allocated_cids=frozenset(
            draw(st.sets(st.integers(min_value=0x0040, max_value=0x0048)))
        ),
        live_states=frozenset(draw(st.sets(st.sampled_from(list(ChannelState))))),
    )


class TestModelCodes:
    """Each paper model's ``codes`` names every code its predicate can
    match: the engine never evaluates a model on any other code."""

    def test_paper_models_declare_their_codes(self):
        for model in PAPER_MODELS:
            assert model.codes
            assert model.codes <= set(COMMAND_SPECS)

    @given(_trigger_contexts())
    @settings(max_examples=400)
    def test_predicate_false_outside_codes(self, context):
        for model in PAPER_MODELS:
            if context.packet.code not in model.codes:
                assert not model.check(context)

    @pytest.mark.parametrize(
        "model", PAPER_MODELS, ids=lambda model: model.vulnerability_id
    )
    def test_firing_trigger_under_any_other_code_is_inert(self, model):
        context = _firing_contexts()[model]
        assert model.check(context)
        for code in COMMAND_SPECS:
            recoded = dataclasses.replace(context, packet=context.packet.replace(code=code))
            assert model.check(recoded) == (code in model.codes)


class TestEngineCodeIndex:
    """The engine evaluates a model only on the codes it declares, in
    registration order within one code."""

    @staticmethod
    def _recorder(codes):
        seen = []

        def record(context: TriggerContext) -> bool:
            seen.append(context.packet.code)
            return False

        model = VulnerabilityModel(
            vulnerability_id="recorder",
            description="never fires",
            predicate=record,
            kind=CrashKind.DOS,
            dump_kind=DumpKind.NONE,
            function="record",
            codes=codes,
        )
        return model, seen

    def test_model_sees_only_its_codes(self):
        model, seen = self._recorder(frozenset({CommandCode.CONFIGURATION_REQ}))
        engine = make_engine(vulnerabilities=(model,))
        engine.handle_l2cap(echo_request(b"probe"))
        cid, _ = open_channel(engine)
        assert seen == []
        engine.handle_l2cap(configuration_request(dcid=cid))
        assert seen == [CommandCode.CONFIGURATION_REQ]

    def test_no_context_built_when_no_model_can_fire(self, monkeypatch):
        import repro.stack.engine as engine_module

        built = []

        def counting_context(**kwargs):
            built.append(kwargs["packet"].code)
            return TriggerContext(**kwargs)

        monkeypatch.setattr(engine_module, "TriggerContext", counting_context)
        engine = make_engine(vulnerabilities=PAPER_MODELS)
        engine.handle_l2cap(echo_request(b"probe"))
        engine.handle_l2cap(
            L2capPacket(CommandCode.INFORMATION_REQ, 2, {"info_type": 2})
        )
        assert built == []
        open_channel(engine)
        assert built == [CommandCode.CONNECTION_REQ]

    @pytest.mark.parametrize("order", ["rtkit-first", "bluedroid-first"])
    def test_shared_code_fires_in_registration_order(self, order):
        models = (RTKIT_PSM_SHUTDOWN, BLUEDROID_CREATE_CHANNEL_DOS)
        if order == "bluedroid-first":
            models = models[::-1]
        engine = make_engine(vulnerabilities=models)
        open_channel(engine)  # a live WAIT_CONFIG channel
        packet = create_channel_request(psm=0x0301, scid=0x0044, cont_id=7)
        packet = packet.replace(garbage=b"\x00")
        for model in models:
            assert model.check(
                _context(packet, live_states=frozenset({ChannelState.WAIT_CONFIG}))
            )
        with pytest.raises(TargetCrashedError):
            engine.handle_l2cap(packet)
        assert engine.crash.vulnerability_id == models[0].vulnerability_id

    def test_rearm_rebuilds_the_index(self):
        model, seen = self._recorder(frozenset({CommandCode.ECHO_REQ}))
        engine = make_engine(vulnerabilities=(), armed=True)
        engine.handle_l2cap(echo_request(b"probe"))
        engine.vulnerabilities = (model,)
        engine.handle_l2cap(echo_request(b"probe"))
        engine.armed = False
        engine.handle_l2cap(echo_request(b"probe"))
        assert seen == [CommandCode.ECHO_REQ]
