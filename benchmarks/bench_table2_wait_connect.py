"""Reproduce paper Table II: WAIT_CONNECT events and actions.

Probes a virtual device sitting in its passive-open posture with every
command of Table II and records the observed action (accept + transition
vs reject), then prints the reproduced table next to the paper's.
"""

from __future__ import annotations

from repro.analysis.sniffer import is_rejection
from repro.hci.transport import SimClock
from repro.l2cap.constants import CommandCode, ConnectionResult, Psm
from repro.l2cap.packets import L2capPacket, connection_request, default_packet
from repro.l2cap.states import ChannelState, WAIT_CONNECT_TABLE
from repro.stack.engine import HostStackEngine
from repro.stack.services import ServiceDirectory, ServiceRecord
from repro.stack.vendors import BLUEZ

from benchmarks.bench_helpers import print_table, run_once


def _fresh_engine() -> HostStackEngine:
    """A spec-strict (BlueZ-flavoured) acceptor in passive open."""
    services = ServiceDirectory([ServiceRecord(Psm.SDP, "SDP")])
    return HostStackEngine(BLUEZ, services, clock=SimClock())


def _probe(event: CommandCode) -> tuple[str, str]:
    """Send *event* to a fresh WAIT_CONNECT acceptor; observe the action."""
    engine = _fresh_engine()
    if event == CommandCode.CONNECTION_REQ:
        packet = connection_request(psm=Psm.SDP, scid=0x0060)
    else:
        packet = default_packet(event)
    responses = engine.handle_l2cap(packet)
    if not responses:
        return "Silently ignored", "No"
    response = responses[0]
    if is_rejection(response):
        # Command Reject or a refusal result — the paper's "Reject" row.
        return "Reject", "No"
    if (
        response.code == CommandCode.CONNECTION_RSP
        and response.fields.get("result") == ConnectionResult.SUCCESS
    ):
        block = engine.channels.live_channels()[0]
        assert block.state is ChannelState.WAIT_CONFIG
        return "Connect Rsp", "WAIT_CONFIG"
    return response.command_name, "No"


def _reproduce_table2() -> list[dict]:
    rows = []
    for event, table_action, _ in WAIT_CONNECT_TABLE:
        action, transition = _probe(event)
        accepts = table_action == CommandCode.CONNECTION_RSP
        rows.append(
            {
                "event": event.name,
                "paper_action": "Connect Rsp" if accepts else "Reject",
                "observed_action": action,
                "transition": transition,
            }
        )
    return rows


def bench_table2_wait_connect(benchmark):
    rows = run_once(benchmark, _reproduce_table2)
    print_table("Table II — WAIT_CONNECT events/actions", rows)
    accept_rows = [r for r in rows if r["observed_action"] == "Connect Rsp"]
    assert len(accept_rows) == 1
    assert accept_rows[0]["event"] == "CONNECTION_REQ"
    assert accept_rows[0]["transition"] == "WAIT_CONFIG"
    for row in rows:
        # The engine answers as the table says (or, as Android does,
        # silently eats an out-of-context response).
        assert row["observed_action"] in (row["paper_action"], "Silently ignored")
