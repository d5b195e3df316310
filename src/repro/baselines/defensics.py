"""Defensics model (Synopsys commercial fuzzer; paper refs [2]).

Defensics is a conformance-test-style fuzzer: long sequences of entirely
valid protocol exchanges with a single *anomalized* test case injected
per protocol state — "most of the test packets are normal packets ...
instead of yielding unexpected behaviors, it often results in normal
communication" (§VI), and "Defensics only tests one packet per state"
(§IV.C). The paper measures MP ≈ 2.38%, PR ≈ 1.73%, 3.37 pps and seven
covered states.
"""

from __future__ import annotations

from repro.baselines.base import BaselineFuzzer
from repro.core.packet_queue import PacketQueue
from repro.l2cap.constants import (
    CommandCode,
    ConfigResult,
    ConnectionResult,
    InfoType,
    Psm,
)
from repro.l2cap.packets import (
    L2capPacket,
    configuration_request,
    configuration_response,
    connection_request,
    disconnection_request,
    echo_request,
    information_request,
)


class DefensicsFuzzer(BaselineFuzzer):
    """Conformance-suite fuzzer: mostly valid, one anomaly per state."""

    name = "Defensics"
    pps = 3.37

    #: Echo payload sizes swept during the valid conformance passes.
    ECHO_SWEEP = tuple(range(0, 44, 2))
    #: Valid conformance iterations between anomaly injections.
    CONFORMANCE_PASSES = 5

    def __init__(self, queue: PacketQueue, seed: int = 0x1202, base_cid: int = 0x4000) -> None:
        super().__init__(queue, seed)
        self._next_cid = base_cid

    def run_cycle(self, max_packets: int) -> None:
        """One suite cycle: conformance passes plus per-state anomalies."""
        for _ in range(self.CONFORMANCE_PASSES):
            if self._budget_left(max_packets) <= 0:
                return
            self._conformance_pass(max_packets)
        if self._budget_left(max_packets) > 0:
            self._config_rejection_case(max_packets)
        self._anomaly_pass(max_packets)

    # -- valid conformance traffic ---------------------------------------------------

    def _conformance_pass(self, max_packets: int) -> None:
        """Echo/info sweeps plus a full connect-configure-teardown."""
        for size in self.ECHO_SWEEP:
            if self._budget_left(max_packets) <= 0:
                return
            self._send(
                echo_request(b"\x55" * size, identifier=self.queue.take_identifier())
            )
        for info_type in (InfoType.CONNECTIONLESS_MTU, InfoType.EXTENDED_FEATURES):
            if self._budget_left(max_packets) <= 0:
                return
            self._send(
                information_request(info_type, identifier=self.queue.take_identifier())
            )
        self._open_and_close(max_packets)

    def _open_and_close(self, max_packets: int) -> tuple[int, int]:
        """Valid connection + both-direction configuration + teardown."""
        our_cid = self._take_cid()
        responses = self._send(
            connection_request(
                psm=Psm.SDP, scid=our_cid, identifier=self.queue.take_identifier()
            )
        )
        target_cid = 0
        for response in responses:
            if (
                response.code == CommandCode.CONNECTION_RSP
                and response.fields.get("result") == ConnectionResult.SUCCESS
            ):
                target_cid = response.fields.get("dcid", 0)
        if not target_cid or self._budget_left(max_packets) <= 0:
            return 0, 0
        responses = self._send(
            configuration_request(
                dcid=target_cid, identifier=self.queue.take_identifier()
            )
        )
        for response in responses:
            if response.code == CommandCode.CONFIGURATION_REQ:
                self._send(
                    configuration_response(
                        scid=target_cid, identifier=response.identifier
                    )
                )
        if self._budget_left(max_packets) > 0:
            self._send(
                disconnection_request(
                    dcid=target_cid,
                    scid=our_cid,
                    identifier=self.queue.take_identifier(),
                )
            )
        return our_cid, target_cid

    def _config_rejection_case(self, max_packets: int) -> None:
        """Conformance case: reject the target's configuration parameters.

        A conformant target initiates its own disconnect (entering
        WAIT_DISCONNECT), which the suite answers — the seventh state
        Defensics exercises.
        """
        our_cid = self._take_cid()
        responses = self._send(
            connection_request(
                psm=Psm.SDP, scid=our_cid, identifier=self.queue.take_identifier()
            )
        )
        target_cid = 0
        for response in responses:
            if (
                response.code == CommandCode.CONNECTION_RSP
                and response.fields.get("result") == ConnectionResult.SUCCESS
            ):
                target_cid = response.fields.get("dcid", 0)
        if not target_cid or self._budget_left(max_packets) <= 0:
            return
        responses = self._send(
            configuration_request(
                dcid=target_cid, identifier=self.queue.take_identifier()
            )
        )
        device_req = next(
            (r for r in responses if r.code == CommandCode.CONFIGURATION_REQ), None
        )
        if device_req is None or self._budget_left(max_packets) <= 0:
            return
        responses = self._send(
            configuration_response(
                scid=target_cid,
                result=ConfigResult.REJECTED,
                identifier=device_req.identifier,
            )
        )
        disconnect = next(
            (r for r in responses if r.code == CommandCode.DISCONNECTION_REQ), None
        )
        if disconnect is not None and self._budget_left(max_packets) > 0:
            self._send(
                L2capPacket(
                    CommandCode.DISCONNECTION_RSP,
                    disconnect.identifier,
                    {
                        "dcid": disconnect.fields.get("dcid", 0),
                        "scid": disconnect.fields.get("scid", 0),
                    },
                )
            )

    # -- anomaly injection -------------------------------------------------------------

    def _anomaly_pass(self, max_packets: int) -> None:
        """One anomalized test case per covered protocol state."""
        anomalies = (
            self._anomaly_closed,
            self._anomaly_connect,
            self._anomaly_config,
            self._anomaly_open,
            self._anomaly_disconnect,
        )
        for anomaly in anomalies:
            if self._budget_left(max_packets) <= 0:
                return
            anomaly()

    def _anomaly_closed(self) -> None:
        """CLOSED-state anomaly: an over-length echo (length corruption)."""
        packet = echo_request(b"\xAA" * 8, identifier=self.queue.take_identifier())
        # Corrupt the dependent length field.
        self._send(packet.replace(declared_data_len=2))

    def _anomaly_connect(self) -> None:
        """Connect anomaly: reserved PSM value."""
        self._send(
            connection_request(
                psm=0x0100, scid=self._take_cid(), identifier=self.queue.take_identifier()
            )
        )

    def _anomaly_config(self) -> None:
        """Config anomaly: configuration for a never-allocated channel."""
        self._send(
            configuration_request(
                dcid=0xFF00, identifier=self.queue.take_identifier()
            )
        )

    def _anomaly_open(self) -> None:
        """OPEN-state anomaly: unsolicited configuration response."""
        self._send(
            configuration_response(
                scid=0xFF00,
                result=ConfigResult.SUCCESS,
                identifier=self.queue.take_identifier(),
            )
        )

    def _anomaly_disconnect(self) -> None:
        """Disconnect anomaly: teardown of a never-allocated channel."""
        self._send(
            L2capPacket(
                CommandCode.DISCONNECTION_REQ,
                self.queue.take_identifier(),
                {"dcid": 0xFEFE, "scid": 0xFDFD},
            )
        )

    def _take_cid(self) -> int:
        cid = self._next_cid
        self._next_cid += 1
        if self._next_cid > 0xFFFF:
            self._next_cid = 0x4000
        return cid
