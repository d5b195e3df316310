"""A fixed slice of packet-path-like work that measures the host's speed.

The reference VM's speed drifts by ±30% over tens of seconds (see
README.md), far more than any bound worth gating on. Each workload runs
this yardstick next to its operations and scales its timings by
``(NOMINAL_S / yardstick seconds) ** GAIN``, so what is reported is the
speed the operations would have had on the host at its nominal speed. The
yardstick is frozen benchmark code: a change to ``src/`` never moves
it, only the host does.

The work imitates the packet path's mix — small objects with slots,
method dispatch through a dict, ``struct`` framing and parsing, a
state machine, byte slicing and a running histogram — so it slows down
with the host as the fuzzer does, if more steeply (see :data:`GAIN`).
"""

from __future__ import annotations

import contextlib
import statistics
import struct
import sys
import time

_HEADER = struct.Struct("<HH")
_COMMAND = struct.Struct("<BBH")

#: Median yardstick time on the reference host in its fast state; the
#: scale reported timings are normalised to.
NOMINAL_S = 0.004

#: Elasticity of the workloads' speed to the yardstick's: the yardstick,
#: a tight loop, slows down more than the packet path when the host
#: does. Fitted on the reference VM over 26 eight-second windows of a
#: 200 s drift (raw campaign rate spread 0.36): log campaign rate
#: against log yardstick time has slope −0.84 (r = −0.99); two earlier
#: drifts gave −0.70 and −0.77.
GAIN = 0.8


class _Frame:
    __slots__ = ("code", "ident", "payload")

    def __init__(self, code: int, ident: int, payload: bytes) -> None:
        self.code = code
        self.ident = ident
        self.payload = payload

    def encode(self) -> bytes:
        body = _COMMAND.pack(self.code, self.ident, len(self.payload)) + self.payload
        return _HEADER.pack(len(body), 1) + body

    @classmethod
    def decode(cls, raw: bytes) -> "_Frame":
        length, _cid = _HEADER.unpack_from(raw)
        code, ident, size = _COMMAND.unpack_from(raw, 4)
        return cls(code, ident, raw[8 : 8 + size])


class _Peer:
    def __init__(self) -> None:
        self.state = 0
        self.seen: dict[int, int] = {}
        self.handlers = {
            code: getattr(self, f"_on_{code % 4}") for code in range(1, 16)
        }

    def _on_0(self, frame: _Frame) -> int:
        self.state = (self.state + 1) % 13
        return 0

    def _on_1(self, frame: _Frame) -> int:
        return len(frame.payload) & 3

    def _on_2(self, frame: _Frame) -> int:
        self.state = frame.ident % 13
        return 1

    def _on_3(self, frame: _Frame) -> int:
        return 2 if frame.payload[:1] == b"\x00" else 0

    def handle(self, raw: bytes) -> int:
        frame = _Frame.decode(raw)
        handler = self.handlers.get(frame.code)
        outcome = handler(frame) if handler is not None else 3
        self.seen[outcome] = self.seen.get(outcome, 0) + 1
        return outcome


def run_once(frames: int = 1500) -> float:
    """Seconds for one fixed slice of work."""
    started = time.perf_counter()
    peer = _Peer()
    for index in range(frames):
        frame = _Frame(index % 17, index & 0xFF, bytes((index & 0xFF, index >> 8 & 0xFF, 7)))
        peer.handle(frame.encode())
    return time.perf_counter() - started


def _cpu_ticks() -> tuple[int, int]:
    """(busy, stolen) clock ticks of all CPUs so far, from /proc/stat."""
    with open("/proc/stat", encoding="ascii") as handle:
        fields = [int(value) for value in handle.readline().split()[1:]]
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields[:8]
    return user + nice + system + irq + softirq, steal


class HostSpeed:
    """Yardstick samples taken through a run; :meth:`factor` scales the
    run's timings to the nominal host.

    Multi-process workloads also time the CPU the hypervisor steals from
    them (:meth:`stealing`), which a single-threaded yardstick sample
    on one vCPU does not see.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.busy_ticks = 0
        self.stolen_ticks = 0

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            self.samples.append(run_once())

    @contextlib.contextmanager
    def stealing(self):
        """Count busy and stolen CPU ticks while the workload runs."""
        busy, stolen = _cpu_ticks()
        try:
            yield
        finally:
            busy_after, stolen_after = _cpu_ticks()
            self.busy_ticks += busy_after - busy
            self.stolen_ticks += stolen_after - stolen

    def stolen_share(self) -> float:
        """Share of the CPU time the workload asked for that was stolen."""
        demanded = self.busy_ticks + self.stolen_ticks
        return self.stolen_ticks / demanded if demanded else 0.0

    def record(self, outcome, campaign_pps: float, op_p50_s: float) -> None:
        """Set the two normalised timing metrics from their raw values;
        the raw values and the factor go to standard error."""
        factor = self.factor()
        print(
            f"perfbench: host factor {factor:.4f} over {len(self.samples)} "
            f"samples, stolen share {self.stolen_share():.4f}; raw "
            f"campaign_pps {campaign_pps:.1f}, raw op_p50_s {op_p50_s:.5f}",
            file=sys.stderr,
        )
        outcome.metric("campaign_pps", campaign_pps * factor, "pkt/s")
        outcome.metric("op_p50_s", op_p50_s / factor, "s")

    def factor(self) -> float:
        """How much slower than nominal the host ran the workload: above
        1 on a slow host."""
        slowdown = (statistics.median(self.samples) / NOMINAL_S) ** GAIN
        return slowdown / (1.0 - self.stolen_share())
