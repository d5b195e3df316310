"""Tests for the RFCOMM mux and the transferred fuzzing methodology.

The transferred fuzzer is no longer a standalone class: RFCOMM
campaigns run through the shared engine via the ``rfcomm`` fuzz target
(see ``tests/targets/`` for the cross-protocol suite). The tests here
pin the mux itself plus the RFCOMM-specific campaign behaviour the old
``RfcommFuzzer`` tests covered.
"""

from __future__ import annotations

import pytest

from repro.core.config import FuzzConfig
from repro.core.detection import VulnerabilityClass, finding_key
from repro.errors import TargetCrashedError
from repro.rfcomm.constants import CONTROL_DLCI, FrameType
from repro.rfcomm.frames import RfcommFrame, disc, sabm, uih
from repro.rfcomm.mux import DlciState, RfcommMux
from repro.testbed.profiles import D5
from repro.testbed.session import FuzzSession


class TestMux:
    def test_control_channel_connects(self):
        mux = RfcommMux()
        response = RfcommFrame.decode(mux.handle_payload(sabm(CONTROL_DLCI).encode()))
        assert response.frame_type == FrameType.UA
        assert mux.dlci_state(CONTROL_DLCI) is DlciState.CONNECTED

    def test_data_dlci_requires_control_first(self):
        mux = RfcommMux(server_channels=(1,))
        response = RfcommFrame.decode(mux.handle_payload(sabm(3).encode()))
        assert response.frame_type == FrameType.DM

    def test_data_dlci_connects_after_control(self):
        mux = RfcommMux(server_channels=(1,))
        mux.handle_payload(sabm(CONTROL_DLCI).encode())
        response = RfcommFrame.decode(mux.handle_payload(sabm(3).encode()))
        assert response.frame_type == FrameType.UA

    def test_unknown_dlci_rejected_with_dm(self):
        mux = RfcommMux(server_channels=(1,))
        mux.handle_payload(sabm(CONTROL_DLCI).encode())
        response = RfcommFrame.decode(mux.handle_payload(sabm(40).encode()))
        assert response.frame_type == FrameType.DM

    def test_uih_echoes_on_connected_dlci(self):
        mux = RfcommMux(server_channels=(1,))
        mux.handle_payload(sabm(CONTROL_DLCI).encode())
        mux.handle_payload(sabm(3).encode())
        response = RfcommFrame.decode(mux.handle_payload(uih(3, b"hi").encode()))
        assert response.frame_type == FrameType.UIH
        assert response.payload == b"hi"

    def test_uih_to_disconnected_dlci_gets_dm(self):
        mux = RfcommMux(server_channels=(1,))
        response = RfcommFrame.decode(mux.handle_payload(uih(3, b"hi").encode()))
        assert response.frame_type == FrameType.DM

    def test_disc_closes(self):
        mux = RfcommMux(server_channels=(1,))
        mux.handle_payload(sabm(CONTROL_DLCI).encode())
        mux.handle_payload(sabm(3).encode())
        response = RfcommFrame.decode(mux.handle_payload(disc(3).encode()))
        assert response.frame_type == FrameType.UA
        assert mux.dlci_state(3) is DlciState.DISCONNECTED

    def test_bad_fcs_frame_dropped(self):
        mux = RfcommMux()
        raw = bytearray(sabm(CONTROL_DLCI).encode())
        raw[-1] ^= 0xFF
        assert mux.handle_payload(bytes(raw)) == b""
        assert mux.frames_rejected == 1


class TestUihOverflowCheck:
    """The injected overflow fires on four or more bytes past the FCS.

    The frame's own header is 3 bytes, or 4 when the payload needs the
    two-byte length (over 127 bytes); the check must count that fourth
    header byte as the frame's, not as tail.
    """

    @pytest.mark.parametrize("payload_len", [4, 128])
    @pytest.mark.parametrize("trailing, crashes", [(3, False), (4, True)])
    def test_trailing_bytes_past_the_frame(self, payload_len, trailing, crashes):
        mux = RfcommMux(server_channels=(1,), vulnerable=True)
        mux.handle_payload(sabm(CONTROL_DLCI).encode())
        mux.handle_payload(sabm(3).encode())
        frame = uih(3, bytes(range(payload_len))).encode()
        assert len(frame) == (3 if payload_len <= 0x7F else 4) + payload_len + 1
        raw = frame + b"\xa5" * trailing
        if crashes:
            with pytest.raises(TargetCrashedError) as crash:
                mux.handle_payload(raw)
            assert crash.value.crash.vulnerability_id == "rfcomm-uih-overflow"
        else:
            assert RfcommFrame.decode(mux.handle_payload(raw)).payload == bytes(
                range(payload_len)
            )

    def test_disarmed_mux_never_fires(self):
        mux = RfcommMux(server_channels=(1,), vulnerable=False)
        mux.handle_payload(sabm(CONTROL_DLCI).encode())
        mux.handle_payload(sabm(3).encode())
        raw = uih(3, b"data").encode() + b"\xa5" * 16
        assert RfcommFrame.decode(mux.handle_payload(raw)).payload == b"data"


def _rfcomm_session(armed: bool, budget: int = 3000, seed: int = 7) -> FuzzSession:
    return FuzzSession(
        D5,
        FuzzConfig(max_packets=budget, seed=seed),
        armed=armed,
        target="rfcomm",
    )


class TestRfcommCampaign:
    """The §V thesis, now through the shared campaign engine."""

    def test_state_guiding_opens_dlcis(self):
        session = _rfcomm_session(armed=False)
        report = session.run()
        mux = session.device.rfcomm_mux
        assert {state.value for state in report.covered_states} == {
            "MUX_CLOSED",
            "CONTROL_OPEN",
            "DATA_OPEN",
        }
        assert (CONTROL_DLCI, DlciState.CONNECTED) in set(mux.state_history)
        assert (3, DlciState.CONNECTED) in set(mux.state_history)

    def test_mutated_frames_parse_and_classify(self):
        session = _rfcomm_session(armed=False)
        report = session.run()
        mux = session.device.rfcomm_mux
        assert report.packets_sent >= 3000
        assert mux.frames_rejected > 0  # DMs for unopened DLCIs
        assert mux.frames_accepted > 0
        assert not report.findings

    def test_vulnerable_mux_crashes_under_fuzzing(self):
        session = _rfcomm_session(armed=True)
        report = session.run()
        assert report.vulnerability_found
        finding = report.first_finding
        assert finding.vulnerability_class is VulnerabilityClass.CRASH
        assert finding.target == "rfcomm"
        assert not session.device.is_alive
        assert session.device.crash.vulnerability_id == "rfcomm-uih-overflow"
        assert session.device.crash_dumps  # tombstone recovered

    def test_finding_buckets_with_shared_key(self):
        """RFCOMM findings dedupe via finding_key(), not a raw tuple.

        The old standalone fuzzer's report bucketed crashes by an
        ad-hoc tuple that never matched the fleet/corpus databases; an
        absorbed finding must produce the canonical key with the target
        name in front, distinct from the same trigger on L2CAP.
        """
        report = _rfcomm_session(armed=True).run()
        finding = report.first_finding
        key = finding.key("Apple")
        assert key == finding_key(
            "Apple", VulnerabilityClass.CRASH, finding.trigger, "rfcomm"
        )
        assert key[0] == "rfcomm"
        assert key != finding_key(
            "Apple", VulnerabilityClass.CRASH, finding.trigger, "l2cap"
        )

    def test_campaign_is_deterministic(self):
        first = _rfcomm_session(armed=False, budget=1000).run()
        second = _rfcomm_session(armed=False, budget=1000).run()
        assert first == second

    def test_disarmed_mux_never_fires_the_bug(self):
        """Disarming the device disarms the injected mux overflow too."""
        session = _rfcomm_session(armed=False)
        report = session.run()
        assert not report.findings
        assert session.device.is_alive
