"""Repository benchmark: one workload, one seed, one JSON result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload stream --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing traced;
``--trace 1`` runs the same workload with the per-layer ledger on and
reports the per-layer metrics instead. Workloads, metrics and the
evidence behind their bounds are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from stream_workload import HOT_PATH_LAYERS

#: End-to-end metrics: (name, unit). Every workload reports all of them.
END_TO_END = (
    ("campaign_pps", "pkt/s"),
    ("op_p50_s", "s"),
    ("rss_mb", "MB"),
    ("setup_s", "s"),
)

#: Per-layer metrics: (name, unit). A layer a workload does not run, or
#: does not trace, reads 0 there (see README.md for which is which).
PER_LAYER = (
    *(
        item
        for layer in HOT_PATH_LAYERS
        for item in (
            (f"{layer}.self_ns_per_pkt", "ns/pkt"),
            (f"{layer}.calls_per_pkt", "calls/pkt"),
        )
    ),
    ("other.self_ns_per_pkt", "ns/pkt"),
    ("mutation.malformed_ratio", "ratio"),
    ("engine.reject_ratio", "ratio"),
    ("packet_queue.rx_per_tx", "ratio"),
    ("fleet.construct_s", "s"),
    ("fleet.merge_s", "s"),
    ("telemetry.close_s", "s"),
    ("runtime.dispatch_s", "s"),
    ("runtime.worker_busy_frac", "fraction"),
    ("runtime.retries", "count"),
    ("corpus.writeback_s", "s"),
    ("corpus.entries_added", "count"),
    ("corpus.findings_new", "count"),
    ("http.submit_ack_s", "s"),
    ("http.report_fetch_s", "s"),
    ("scheduler.queue_wait_s", "s"),
    ("scheduler.exec_s", "s"),
    ("fleet.run_s", "s"),
    ("service.overhead_frac", "fraction"),
    ("registry.write_s", "s"),
    ("registry.writes_per_job", "count"),
    ("trace.overhead_frac", "fraction"),
)

WORKLOADS = ("stream", "fleet", "service")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(
            "perfbench: no repro sources under ./src — run from the root "
            "of a repository checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(root / "src"))

    if args.workload == "stream":
        import stream_workload as workload
    elif args.workload == "fleet":
        import fleet_workload as workload
    else:
        import service_workload as workload

    outcome = workload.run(root, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        for name, unit in PER_LAYER:
            if name not in outcome.metrics:
                outcome.metric(name, 0.0, unit)
        outcome.emit([name for name, _ in PER_LAYER])
    else:
        outcome.emit([name for name, _ in END_TO_END])
    return 0


if __name__ == "__main__":
    sys.exit(main())
