"""Hot-path-safe metrics registry: counters, gauges, histograms.

The registry is deliberately *not* wired into the per-packet loop.
Campaign execution already maintains every number the catalog needs —
the sniffer's running counters, the engine's transition tallies, the
summary codec's corpus stats — so metrics are folded in **batched
flushes at campaign/run boundaries** (one
:meth:`MetricsRegistry.inc`/:meth:`~MetricsRegistry.observe` call per
campaign or shard, never per packet). The hot path pays nothing: no
locks, no allocations, no callbacks. ``tests/telemetry/test_off_packet_path.py``
pins it exactly: a shard's journal events and registry calls do not
grow with its packet budget.

Snapshots are versioned (:data:`METRICS_SCHEMA_VERSION`) like the fleet
summary codec, so the future control plane can consume them across
releases; exposition is available as a JSON snapshot and as Prometheus
text format (:meth:`MetricsRegistry.to_prometheus`).
"""

from __future__ import annotations

import json
import math

#: Format version stamped on every metrics snapshot.
METRICS_SCHEMA_VERSION = 1

#: Default histogram bucket upper bounds (seconds-flavoured).
DEFAULT_BUCKETS = (0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0)

_LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict) -> _LabelKey:
    return tuple(sorted((name, str(value)) for name, value in labels.items()))


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(key: _LabelKey, extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = [*key, *extra]
    if not pairs:
        return ""
    body = ",".join(f'{name}="{_escape_label(value)}"' for name, value in pairs)
    return "{" + body + "}"


class MetricsRegistry:
    """A flat registry of labelled counters, gauges and histograms.

    All mutation methods take label values as keyword arguments::

        registry.inc("repro_packets_sent_total", 3000,
                     target="l2cap", strategy="sequential")
        registry.set_gauge("repro_worker_busy_seconds", 12.5, worker="41")
        registry.observe("repro_shard_seconds", 0.8)
    """

    def __init__(self) -> None:
        self._counters: dict[str, dict[_LabelKey, float]] = {}
        self._gauges: dict[str, dict[_LabelKey, float]] = {}
        self._histograms: dict[str, dict[_LabelKey, dict]] = {}
        self._buckets: dict[str, tuple[float, ...]] = {}

    # -- mutation (batched flush points only — never per packet) --------------------

    def inc(self, name: str, value: float = 1, **labels) -> None:
        """Add *value* to a counter series (created at zero)."""
        if value < 0:
            raise ValueError(f"counter {name} cannot decrease (got {value})")
        series = self._counters.setdefault(name, {})
        key = _label_key(labels)
        series[key] = series.get(key, 0) + value

    def set_gauge(self, name: str, value: float, **labels) -> None:
        """Set a gauge series to *value*."""
        self._gauges.setdefault(name, {})[_label_key(labels)] = value

    def observe(
        self,
        name: str,
        value: float,
        buckets: tuple[float, ...] | None = None,
        **labels,
    ) -> None:
        """Record one observation into a histogram series.

        The bucket layout is fixed by the first observation of *name*
        (later calls may omit ``buckets``).
        """
        uppers = self._buckets.setdefault(
            name, tuple(buckets) if buckets is not None else DEFAULT_BUCKETS
        )
        series = self._histograms.setdefault(name, {})
        key = _label_key(labels)
        state = series.get(key)
        if state is None:
            state = {"counts": [0] * (len(uppers) + 1), "sum": 0.0, "count": 0}
            series[key] = state
        for position, upper in enumerate(uppers):
            if value <= upper:
                state["counts"][position] += 1
                break
        else:
            state["counts"][-1] += 1  # +Inf bucket
        state["sum"] += value
        state["count"] += 1

    # -- exposition ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Versioned plain-data snapshot (JSON-safe, deterministic order)."""

        def _series(table: dict[str, dict[_LabelKey, float]]) -> dict:
            return {
                name: [
                    {"labels": dict(key), "value": value}
                    for key, value in sorted(series.items())
                ]
                for name, series in sorted(table.items())
            }

        histograms = {}
        for name, series in sorted(self._histograms.items()):
            uppers = self._buckets[name]
            histograms[name] = [
                {
                    "labels": dict(key),
                    "buckets": [
                        [upper, count]
                        for upper, count in zip(
                            [*uppers, "+Inf"], state["counts"]
                        )
                    ],
                    "sum": state["sum"],
                    "count": state["count"],
                }
                for key, state in sorted(series.items())
            ]
        return {
            "schema": METRICS_SCHEMA_VERSION,
            "counters": _series(self._counters),
            "gauges": _series(self._gauges),
            "histograms": histograms,
        }

    def to_json(self, indent: int | None = 2) -> str:
        """The snapshot as deterministic JSON."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (0.0.4), sorted and stable."""
        lines: list[str] = []
        for name, series in sorted(self._counters.items()):
            lines.append(f"# TYPE {name} counter")
            for key, value in sorted(series.items()):
                lines.append(f"{name}{_render_labels(key)} {_format_value(value)}")
        for name, series in sorted(self._gauges.items()):
            lines.append(f"# TYPE {name} gauge")
            for key, value in sorted(series.items()):
                lines.append(f"{name}{_render_labels(key)} {_format_value(value)}")
        for name, series in sorted(self._histograms.items()):
            uppers = self._buckets[name]
            lines.append(f"# TYPE {name} histogram")
            for key, state in sorted(series.items()):
                cumulative = 0
                for upper, count in zip([*uppers, math.inf], state["counts"]):
                    cumulative += count
                    upper_text = "+Inf" if upper == math.inf else _format_value(upper)
                    lines.append(
                        f"{name}_bucket"
                        f"{_render_labels(key, (('le', upper_text),))}"
                        f" {cumulative}"
                    )
                lines.append(
                    f"{name}_sum{_render_labels(key)} {_format_value(state['sum'])}"
                )
                lines.append(f"{name}_count{_render_labels(key)} {state['count']}")
        return "\n".join(lines) + ("\n" if lines else "")

    # -- merging ---------------------------------------------------------------------


def _format_value(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)
