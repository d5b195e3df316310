"""``stream``: back-to-back in-process L2CAP campaigns (the packet hot path).

Disarmed, zero-latency, streaming (``retain_trace=False``) campaigns
through ``FuzzSession.run()`` in one closed loop, alternating the D1
and D2 profiles on campaign seeds the workload seed draws from a fixed,
pinned pool. No fleet, corpus or service code runs, so almost every
cycle is spent on the packet path: mutator → codec → validation →
``PacketQueue`` → HCI link → ``VirtualDevice`` → engine → sniffer →
detector.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

from common import (
    PAPER_SIM_PPS,
    Outcome,
    derived_seeds,
    median,
    peak_rss_mb,
    set_efficiency_ratios,
)
from yardstick import HostSpeed

PROFILE_IDS = ("D1", "D2")
BUDGET = 2_000
POOL_SIZE = 48
TRACE_POOL = 4
SETUP_REPEATS = 7

#: Efficiency counts — (transmitted, malformed, received, rejections) —
#: of every campaign in the seed pool, pinned from a known-good commit
#: by ``pin_stream.py``. Campaigns are seed-pure, so any change in a
#: count is a change in the fuzzer's behaviour.
PINS_PATH = Path(__file__).with_name("stream_pins.json")


def campaign_pool() -> dict[str, list[int]]:
    """The campaign seeds each profile draws from (fixed, not per run)."""
    pool = {}
    for device_id in PROFILE_IDS:
        seeds = derived_seeds(0, f"stream-pool:{device_id}")
        pool[device_id] = [next(seeds) for _ in range(POOL_SIZE)]
    return pool


def load_pins() -> dict[str, dict[int, tuple[int, int, int, int]]]:
    data = json.loads(PINS_PATH.read_text(encoding="utf-8"))
    if data["budget"] != BUDGET:
        raise ValueError(f"{PINS_PATH.name} pins budget {data['budget']}, not {BUDGET}")
    return {
        device_id: {int(seed): tuple(counts) for seed, counts in pins.items()}
        for device_id, pins in data["campaigns"].items()
    }


def efficiency_counts(report) -> tuple[int, int, int, int]:
    efficiency = report.efficiency
    return (
        efficiency.transmitted,
        efficiency.malformed,
        efficiency.received,
        efficiency.rejections,
    )


_SETUP_PROBE = """
import time
started = time.perf_counter()
from repro.core.config import FuzzConfig
from repro.testbed.profiles import PROFILES_BY_ID
from repro.testbed.session import FuzzSession
FuzzSession(
    profile=PROFILES_BY_ID["D1"],
    config=FuzzConfig(max_packets=%d),
    armed=False,
    zero_latency=True,
    retain_trace=False,
)
print(time.perf_counter() - started)
""" % BUDGET


def _setup_seconds(root: Path) -> float:
    """Import plus the first session build, in a fresh interpreter.

    Run once untimed (it may compile bytecode), then
    :data:`SETUP_REPEATS` times; the median is reported, normalised to
    the nominal host by yardstick samples taken between the probes.
    """
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    samples, host = [], HostSpeed()
    for attempt in range(SETUP_REPEATS + 1):
        host.sample()
        result = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        if attempt:
            samples.append(float(result.stdout.strip().splitlines()[-1]))
    return median(samples) / host.factor()


def install_hot_path(ledger) -> None:
    """Wrap every packet-path entry point the ledger reports on.

    Must run before the session is built: the link captures the bound
    ``VirtualDevice.handle_acl_frame`` when the device attaches.
    Validation helpers are wrapped where they are bound by
    ``from … import``, which is where the engine and sniffer look them
    up.
    """
    from repro.analysis import sniffer
    from repro.core.detection import VulnerabilityDetector
    from repro.core.packet_queue import PacketQueue
    from repro.hci.transport import VirtualLink
    from repro.l2cap.packets import L2capPacket
    from repro.stack import engine
    from repro.stack.device import VirtualDevice
    from repro.targets import l2cap, obex, rfcomm, sdp

    for owner, attr, layer in (
        (L2capPacket, "encode", "codec"),
        (L2capPacket, "decode", "codec"),
        (engine, "structural_reject_reason", "validation"),
        (sniffer, "is_malformed", "validation"),
        (PacketQueue, "send", "packet_queue"),
        (PacketQueue, "drain", "packet_queue"),
        (VirtualLink, "send_frame", "transport"),
        (VirtualDevice, "handle_acl_frame", "device"),
        (engine.HostStackEngine, "handle_l2cap", "engine"),
        (sniffer.PacketSniffer, "observe_sent", "sniffer"),
        (sniffer.PacketSniffer, "observe_received", "sniffer"),
        (VulnerabilityDetector, "ping_test", "detection"),
    ):
        ledger.patch(owner, attr, layer)
    # Every protocol target's mutator and state guide (only L2CAP runs
    # on stream; fleet campaigns run all four).
    for mutator, guide in (
        (l2cap._L2capMutator, l2cap._L2capGuide),
        (rfcomm._RfcommMutator, rfcomm._RfcommGuide),
        (sdp._SdpMutator, sdp._SdpGuide),
        (obex._ObexMutator, obex._ObexGuide),
    ):
        ledger.patch(mutator, "mutate_wire", "mutation")
        ledger.patch(mutator, "mutate", "mutation")
        ledger.patch(guide, "enter", "state_guiding")
        ledger.patch(guide, "leave", "state_guiding")


HOT_PATH_LAYERS = (
    "mutation",
    "codec",
    "validation",
    "packet_queue",
    "transport",
    "device",
    "engine",
    "sniffer",
    "detection",
    "state_guiding",
)


def _campaign(profile, seed: int, outcome: Outcome, pins, ledger=None):
    """One campaign, checked against *pins*; returns (op seconds, run
    seconds, report)."""
    from repro.core.config import FuzzConfig
    from repro.testbed.session import FuzzSession

    if ledger is not None:
        install_hot_path(ledger)
    try:
        started = time.perf_counter()
        session = FuzzSession(
            profile=profile,
            config=FuzzConfig(seed=seed, max_packets=BUDGET),
            armed=False,
            zero_latency=True,
            retain_trace=False,
        )
        running = time.perf_counter()
        report = session.run()
        done = time.perf_counter()
    finally:
        if ledger is not None:
            ledger.restore()
    outcome.attempted += 1
    counts = efficiency_counts(report)
    sim_pps = report.efficiency.packets_per_second
    if counts != pins[profile.device_id][seed]:
        outcome.fail(f"{profile.device_id} seed {seed}: efficiency {counts}")
    elif abs(sim_pps - PAPER_SIM_PPS) > 1e-6 * PAPER_SIM_PPS:
        outcome.fail(f"{profile.device_id} seed {seed}: sim pps {sim_pps}")
    return done - started, done - running, report


def run(root: Path, seed: int, seconds: float, trace: bool) -> Outcome:
    setup = _setup_seconds(root)
    from repro.testbed.profiles import PROFILES_BY_ID

    outcome = Outcome()
    pins, pool = load_pins(), campaign_pool()
    rng = random.Random(f"stream:{seed}")
    profiles = [PROFILES_BY_ID[device_id] for device_id in PROFILE_IDS]
    # Untimed warm-up: first-use caches (templates, encode caches).
    _campaign(profiles[0], pool[PROFILE_IDS[0]][0], Outcome(), pins)
    if not trace:
        ops, pps, host = [], [], HostSpeed()
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            if len(ops) % 4 == 0:
                host.sample()
            profile = profiles[len(ops) % len(profiles)]
            campaign_seed = rng.choice(pool[profile.device_id])
            op, wall, report = _campaign(profile, campaign_seed, outcome, pins)
            ops.append(op)
            pps.append(report.packets_sent / wall)
        host.sample()
        host.record(outcome, median(pps), median(ops))
        outcome.metric("rss_mb", peak_rss_mb([os.getpid()]), "MB")
        outcome.metric("setup_s", setup, "s")
        return outcome

    from ledger import Ledger

    ledger = Ledger()
    packets, other_ns, ratios, totals = 0, 0.0, [], [0, 0, 0, 0]
    # Whole passes over a fixed slice of the pool, each campaign run
    # traced and then untraced: the campaign set — and with it every
    # calls-per-packet figure and ratio — is the same in every run.
    passes = [
        (profile, campaign_seed)
        for profile in profiles
        for campaign_seed in pool[profile.device_id][:TRACE_POOL]
    ]
    deadline = time.perf_counter() + seconds
    while not ratios or time.perf_counter() < deadline:
        rng.shuffle(passes)
        for profile, campaign_seed in passes:
            _, traced_wall, report = _campaign(profile, campaign_seed, outcome, pins, ledger)
            root_ns, root_calls = ledger.root_span_ns()
            other_ns += max(
                0.0, traced_wall * 1e9 - root_ns - root_calls * ledger.cost_out_ns
            )
            packets += report.packets_sent
            _, plain_wall, plain = _campaign(profile, campaign_seed, outcome, pins)
            ratios.append(traced_wall / plain_wall)
            counts = efficiency_counts(report)
            if counts != efficiency_counts(plain):
                outcome.fail(f"{profile.device_id} seed {campaign_seed}: tracing changed counts")
            totals = [total + count for total, count in zip(totals, counts)]
    for layer in HOT_PATH_LAYERS:
        outcome.metric(
            f"{layer}.self_ns_per_pkt", ledger.corrected_self_ns(layer) / packets, "ns/pkt"
        )
        outcome.metric(f"{layer}.calls_per_pkt", ledger.calls[layer] / packets, "calls/pkt")
    outcome.metric("other.self_ns_per_pkt", other_ns / packets, "ns/pkt")
    outcome.metric("trace.overhead_frac", median(ratios) - 1.0, "fraction")
    set_efficiency_ratios(outcome, *totals)
    return outcome

