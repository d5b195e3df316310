"""The paper's two evaluation metrics (§IV.A).

* **Mutation efficiency** — ``MP Ratio * (1 - PR Ratio)`` where

  - ``MP Ratio = #Transmitted Malformed Packets / #Transmitted Packets``
  - ``PR Ratio = #Received Rejection Packets / #Received Packets``

  "the minimum percentage of malformed packets transmitted without
  rejection."

* **State coverage** — the number of L2CAP states a fuzzer exercises
  (computed in :mod:`repro.analysis.state_coverage`).

This module also produces the cumulative series behind Fig. 8 and
Fig. 9: malformed-vs-transmitted and rejections-vs-received curves.
"""

from __future__ import annotations

import dataclasses

from repro.analysis.sniffer import Direction, PacketSniffer


@dataclasses.dataclass(frozen=True)
class MutationEfficiency:
    """Result of a mutation-efficiency measurement (paper Table VII)."""

    transmitted: int
    malformed: int
    received: int
    rejections: int
    elapsed_seconds: float

    @property
    def mp_ratio(self) -> float:
        """Malformed Packet Ratio: malformed / transmitted."""
        if not self.transmitted:
            return 0.0
        return self.malformed / self.transmitted

    @property
    def pr_ratio(self) -> float:
        """Packet Rejection Ratio: rejections / received."""
        if not self.received:
            return 0.0
        return self.rejections / self.received

    @property
    def mutation_efficiency(self) -> float:
        """MP Ratio * (1 - PR Ratio)."""
        return self.mp_ratio * (1.0 - self.pr_ratio)

    @property
    def packets_per_second(self) -> float:
        """Transmission throughput over simulated time."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.transmitted / self.elapsed_seconds

    def as_table_row(self, fuzzer_name: str) -> dict:
        """Render as one row of paper Table VII."""
        return {
            "fuzzer": fuzzer_name,
            "mp_ratio": round(100.0 * self.mp_ratio, 2),
            "pr_ratio": round(100.0 * self.pr_ratio, 2),
            "mutation_efficiency": round(100.0 * self.mutation_efficiency, 2),
            "pps": round(self.packets_per_second, 2),
        }


def measure(sniffer: PacketSniffer, elapsed_seconds: float) -> MutationEfficiency:
    """Compute the Table VII metrics from a sniffer trace."""
    return MutationEfficiency(
        transmitted=sniffer.transmitted_count(),
        malformed=sniffer.malformed_count(),
        received=sniffer.received_count(),
        rejections=sniffer.rejection_count(),
        elapsed_seconds=elapsed_seconds,
    )


@dataclasses.dataclass(frozen=True)
class CumulativePoint:
    """One sample of a cumulative curve."""

    x: int
    y: int


def mp_curve(sniffer: PacketSniffer, sample_every: int = 1000) -> list[CumulativePoint]:
    """Fig. 8 series: cumulative malformed packets vs transmitted packets.

    With the full trace any *sample_every* can be replayed; a sniffer
    without it (streaming or sent capture) serves its incrementally
    sampled series instead, which pins *sample_every* to the sniffer's
    own.

    :param sample_every: emit one point per this many transmitted packets
        (the final point is always included).
    """
    if sniffer.retain_trace is not True or sample_every == sniffer.sample_every:
        # The streamed series was built at observe time from the same
        # packets in the same order; replaying the trace reproduces it
        # point for point, so serve the stream whenever the sampling
        # grain matches (and always when there is no trace).
        return [
            CumulativePoint(x, y) for x, y in sniffer.streamed_mp_curve(sample_every)
        ]
    points: list[CumulativePoint] = []
    transmitted = 0
    malformed = 0
    for entry in sniffer.trace:
        if entry.direction is not Direction.SENT:
            continue
        transmitted += 1
        if entry.malformed:
            malformed += 1
        if transmitted % sample_every == 0:
            points.append(CumulativePoint(transmitted, malformed))
    if not points or points[-1].x != transmitted:
        points.append(CumulativePoint(transmitted, malformed))
    return points


def pr_curve(sniffer: PacketSniffer, sample_every: int = 1000) -> list[CumulativePoint]:
    """Fig. 9 series: cumulative rejection packets vs received packets.

    Sniffers without the full trace are served from the incremental
    series, exactly like :func:`mp_curve`.
    """
    if sniffer.retain_trace is not True or sample_every == sniffer.sample_every:
        return [
            CumulativePoint(x, y) for x, y in sniffer.streamed_pr_curve(sample_every)
        ]
    points: list[CumulativePoint] = []
    received = 0
    rejections = 0
    for entry in sniffer.trace:
        if entry.direction is not Direction.RECEIVED:
            continue
        received += 1
        if entry.rejection:
            rejections += 1
        if received % sample_every == 0:
            points.append(CumulativePoint(received, rejections))
    if not points or points[-1].x != received:
        points.append(CumulativePoint(received, rejections))
    return points


def render_ascii_curve(
    points: list[CumulativePoint], width: int = 60, label: str = ""
) -> str:
    """Render a cumulative curve as a one-line-per-sample ASCII sketch.

    Useful for eyeballing the Fig. 8/9 shapes from a terminal.
    """
    if not points:
        return f"{label}: (no data)"
    max_y = max(point.y for point in points) or 1
    lines = [f"{label}  (final: x={points[-1].x}, y={points[-1].y})"]
    step = max(1, len(points) // 20)
    for point in points[::step]:
        bar = "#" * int(width * point.y / max_y)
        lines.append(f"{point.x:>8} | {bar}")
    return "\n".join(lines)
