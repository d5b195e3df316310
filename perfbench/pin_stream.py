"""Pin the efficiency counts of the ``stream`` workload's campaign pool.

Run from the root of a checkout, on a commit whose fuzzer behaviour is
known to be right::

    python3 perfbench/pin_stream.py

It rewrites ``perfbench/stream_pins.json``; the ``stream`` workload
then counts any campaign whose counts differ as a failed operation.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

from stream_workload import (  # noqa: E402
    BUDGET,
    PINS_PATH,
    campaign_pool,
    efficiency_counts,
)


def main() -> int:
    from repro.core.config import FuzzConfig
    from repro.testbed.profiles import PROFILES_BY_ID
    from repro.testbed.session import FuzzSession

    campaigns = {}
    for device_id, seeds in campaign_pool().items():
        campaigns[device_id] = {
            str(seed): list(
                efficiency_counts(
                    FuzzSession(
                        profile=PROFILES_BY_ID[device_id],
                        config=FuzzConfig(seed=seed, max_packets=BUDGET),
                        armed=False,
                        zero_latency=True,
                        retain_trace=False,
                    ).run()
                )
            )
            for seed in seeds
        }
    PINS_PATH.write_text(
        json.dumps({"budget": BUDGET, "campaigns": campaigns}, indent=1) + "\n",
        encoding="utf-8",
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
