"""BFuzz model (IoTcube's Bluetooth module; paper refs [3]).

BFuzz replays traffic templates "previously determined to be vulnerable"
— long captured blobs of ACL data — and then mutates the signaling
packets in them, "mutating almost every field" except the fixed ones.
Corrupting the dependent fields (lengths, identifiers) makes the target
answer "command not understood" for nearly everything, which is exactly
the paper's measurement: MP Ratio ≈ 1.5% (the replayed data dwarfs the
mutations) and PR Ratio ≈ 91.6% (almost every mutation is rejected).

Its valid replay skeleton does exercise a connection + configuration +
teardown, giving it six observable states.
"""

from __future__ import annotations

from repro.baselines.base import BaselineFuzzer
from repro.core.packet_queue import PacketQueue
from repro.l2cap.constants import (
    CONNECTIONLESS_CID,
    CommandCode,
    ConnectionResult,
    Psm,
)
from repro.l2cap.packets import (
    COMMAND_SPECS,
    L2capPacket,
    configuration_request,
    configuration_response,
    connection_request,
    disconnection_request,
)


class BfuzzFuzzer(BaselineFuzzer):
    """Replay-and-corrupt fuzzer: tiny MP ratio, huge PR ratio."""

    name = "BFuzz"
    pps = 454.54

    #: ACL data frames replayed per cycle (the captured blob).
    REPLAY_FRAMES = 5300
    #: Mutated signaling packets per cycle.
    MUTATIONS = 80
    #: Probability a mutation corrupts the dependent length fields (and is
    #: therefore rejected as "command not understood").
    LENGTH_CORRUPTION_RATE = 0.96

    #: Signaling commands present in the replay templates.
    TEMPLATE_CODES = (
        CommandCode.CONNECTION_REQ,
        CommandCode.CONFIGURATION_REQ,
        CommandCode.CONFIGURATION_RSP,
        CommandCode.DISCONNECTION_REQ,
        CommandCode.ECHO_REQ,
    )

    def __init__(self, queue: PacketQueue, seed: int = 0x1202, base_cid: int = 0x3000) -> None:
        super().__init__(queue, seed)
        self._next_cid = base_cid

    def run_cycle(self, max_packets: int) -> None:
        """One replay cycle: data blob, valid skeleton, mutation burst."""
        self._replay_blob(max_packets)
        if self._budget_left(max_packets) <= 0:
            return
        self._valid_skeleton(max_packets)
        for _ in range(self.MUTATIONS):
            if self._budget_left(max_packets) <= 0:
                return
            self._send(self._mutate_template())

    # -- cycle pieces ------------------------------------------------------------

    def _replay_blob(self, max_packets: int) -> None:
        """Replay the captured ACL-data payload (elicits no responses)."""
        count = min(self.REPLAY_FRAMES, self._budget_left(max_packets))
        for _ in range(count):
            payload = bytes(self.rng.getrandbits(8) for _ in range(8))
            self._send(
                L2capPacket(
                    code=0x00,
                    identifier=0,
                    header_cid=CONNECTIONLESS_CID,
                    tail=payload,
                )
            )

    def _valid_skeleton(self, max_packets: int) -> None:
        """The valid part of the replayed template: connect + configure."""
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
        for response in responses:
            if response.code == CommandCode.CONFIGURATION_REQ:
                self._send(
                    configuration_response(
                        scid=target_cid, identifier=response.identifier
                    )
                )
        self._send(
            disconnection_request(
                dcid=target_cid, scid=our_cid, identifier=self.queue.take_identifier()
            )
        )

    def _mutate_template(self) -> L2capPacket:
        """Mutate almost every field of a template signaling packet."""
        code = self.rng.choice(self.TEMPLATE_CODES)
        identifier = self.rng.randrange(0, 256)
        fields = {
            field.name: self.rng.randrange(0, field.max_value + 1)
            for field in COMMAND_SPECS[code].fields
        }
        declared_data_len = None
        if self.rng.random() < self.LENGTH_CORRUPTION_RATE:
            # Corrupting D is what gets BFuzz rejected wholesale. The
            # Data Length is deflated (an inflated Payload Length would
            # stall ACL recombination and never even reach the parser).
            declared_data_len = self.rng.randrange(0, 4)
        garbage = b""
        if self.rng.random() < 0.5:
            garbage = bytes(
                self.rng.getrandbits(8) for _ in range(self.rng.randint(1, 8))
            )
        return L2capPacket(
            code,
            identifier,
            fields,
            garbage=garbage,
            declared_data_len=declared_data_len,
        )

    def _take_cid(self) -> int:
        cid = self._next_cid
        self._next_cid += 1
        if self._next_cid > 0xFFFF:
            self._next_cid = 0x3000
        return cid
