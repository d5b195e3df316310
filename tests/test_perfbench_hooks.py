"""``perfbench --trace 1`` still sees the packet path it patches.

The per-layer ledger swaps each traced entry point for a wrapper by
reading ``owner.__dict__[attr]``, so every hook must stay defined on the
class or module the benchmark names, not inherited or moved. A hook that
stops being called on the packet path makes its layer read zero, and a
wrapper that changes behaviour makes a traced campaign differ from an
untraced one. These tests catch all three without running the
benchmark.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

from repro.analysis import sniffer
from repro.core.config import FuzzConfig
from repro.core.detection import VulnerabilityDetector
from repro.core.packet_queue import PacketQueue
from repro.hci.transport import VirtualLink
from repro.stack import engine
from repro.stack.device import VirtualDevice
from repro.targets import l2cap, obex, rfcomm, sdp
from repro.testbed.profiles import D2
from repro.testbed.session import FuzzSession

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

HOOKS = [
    (PacketQueue, "send"),
    (PacketQueue, "drain"),
    (VirtualLink, "send_frame"),
    (VirtualDevice, "handle_acl_frame"),
    (engine, "structural_reject_reason"),
    (sniffer, "is_malformed"),
    (engine.HostStackEngine, "handle_l2cap"),
    (sniffer.PacketSniffer, "observe_sent"),
    (sniffer.PacketSniffer, "observe_received"),
    (VulnerabilityDetector, "ping_test"),
] + [
    (owner, attr)
    for mutator, guide in (
        (l2cap._L2capMutator, l2cap._L2capGuide),
        (rfcomm._RfcommMutator, rfcomm._RfcommGuide),
        (sdp._SdpMutator, sdp._SdpGuide),
        (obex._ObexMutator, obex._ObexGuide),
    )
    for owner, attr in (
        (mutator, "mutate_wire"),
        (mutator, "mutate"),
        (guide, "enter"),
        (guide, "leave"),
    )
]


@pytest.fixture(scope="module")
def perfbench():
    """perfbench's ``stream_workload`` and ``ledger`` modules, imported
    the way ``perfbench/run.py`` imports them."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield (
            importlib.import_module("stream_workload"),
            importlib.import_module("ledger"),
        )
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize(
    "owner, attr",
    HOOKS,
    ids=[f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr in HOOKS],
)
def test_hook_is_defined_on_its_owner(owner, attr):
    assert callable(owner.__dict__[attr])


def _campaign(stream_workload, ledger=None):
    """A disarmed 200-packet D2 stream campaign, traced when *ledger*
    is given."""
    if ledger is not None:
        stream_workload.install_hot_path(ledger)
    try:
        session = FuzzSession(
            profile=D2,
            config=FuzzConfig(seed=7, max_packets=200),
            armed=False,
            zero_latency=True,
            retain_trace=False,
        )
        report = session.run()
    finally:
        if ledger is not None:
            ledger.restore()
    return report


def test_traced_campaign_counts_equal_untraced(perfbench):
    stream_workload, ledger_module = perfbench
    plain = _campaign(stream_workload)
    ledger = ledger_module.Ledger()
    traced = _campaign(stream_workload, ledger)
    assert stream_workload.efficiency_counts(traced) == (
        stream_workload.efficiency_counts(plain)
    )
    assert traced.packets_sent == plain.packets_sent >= 200
    # The direct hop: one queue call per packet, every layer on the path
    # seen, and the wrappers gone again afterwards.
    assert ledger.calls["packet_queue"] == traced.packets_sent
    for layer in stream_workload.HOT_PATH_LAYERS:
        if layer not in ("transport", "device"):  # the bytes path only
            assert ledger.calls[layer] > 0, layer
    assert all(
        getattr(owner.__dict__[attr], "__name__", attr) != "traced"
        for owner, attr in HOOKS
    )
