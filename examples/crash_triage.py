#!/usr/bin/env python3
"""Crash triage: from a fuzzing campaign to a minimal reproducer.

Addresses the paper's §V limitation 2 ("the root cause cannot be
determined immediately"): run a campaign until the Pixel 3 DoS fires,
save the packet trace, replay it against a fresh device to confirm the
crash, then delta-debug the ~200-packet trace down to the handful of
packets that actually matter.

Run with::

    python examples/crash_triage.py
"""

from __future__ import annotations

from repro import FuzzConfig
from repro.core.triage import replay, sent_packets, shrink_trigger, triage_report
from repro.hci.transport import VirtualLink
from repro.testbed import D2
from repro.testbed.session import FuzzSession


def fresh_target():
    """A pristine armed Pixel 3 for each replay attempt."""
    device = D2.build(armed=True, zero_latency=True)
    link = VirtualLink(clock=device.clock)
    device.attach_to(link)
    return device, link


def main() -> None:
    print("Step 1 — fuzz until the campaign finds the DoS...")
    session = FuzzSession(D2, FuzzConfig(max_packets=50_000))
    report = session.run()
    finding = report.first_finding
    print(f"   found: {finding.vulnerability_class.value} in {finding.state}")
    packets = sent_packets(session.fuzzer.sniffer.trace)
    print(f"   campaign trace: {len(packets)} transmitted packets")

    print("\nStep 2 — replay the full trace against a fresh device...")
    outcome = replay(packets, fresh_target)
    print(
        f"   reproduced: {outcome.crashed} at packet #{outcome.trigger_index} "
        f"({outcome.error_message}, bug id {outcome.crash_id})"
    )

    print("\nStep 3 — delta-debug the trace to a minimal reproducer...")
    minimal, final = shrink_trigger(packets, fresh_target, outcome)
    print(triage_report(minimal, final))
    print(
        f"\n{len(packets)} packets -> {len(minimal)}: the root cause is the "
        "state-transition packet(s) plus the single malformed trigger."
    )


if __name__ == "__main__":
    main()
