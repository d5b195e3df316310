"""Per-layer ledger: spans recorded around calls into each layer.

Spans are recorded from the benchmark's side only: each traced entry
point is swapped for a wrapper on its class or module for the duration
of a traced operation and restored afterwards. Nothing under ``src/``
knows about tracing.

Two kinds of wrapper:

* :meth:`Ledger.nest` — the packet path. Single-threaded and nested
  (``PacketQueue.send`` calls ``VirtualLink.send_frame`` calls
  ``VirtualDevice.handle_acl_frame`` …), so each wrapper keeps a stack
  frame and a layer's *self* time is its span minus the spans of the
  traced calls it made. The wrapper's own cost is calibrated on an
  empty function and subtracted: ``cost_in`` lands inside the span it
  wraps, ``cost_out`` inside the caller's span, once per call.
* :meth:`Ledger.span` — control-plane and fleet entry points called
  from several threads. Inclusive time and call counts under a lock.
"""

from __future__ import annotations

import collections
import threading
import time
import types
from collections.abc import Callable

_CALIBRATION_CALLS = 50_000


def _empty(*_args, **_kwargs) -> None:
    return None


class Ledger:
    def __init__(self) -> None:
        self.calls: collections.Counter = collections.Counter()
        self.self_ns: collections.Counter = collections.Counter()
        self.child_calls: collections.Counter = collections.Counter()
        self.span_ns: collections.Counter = collections.Counter()
        self.span_calls: collections.Counter = collections.Counter()
        self._stack: list[list[int]] = [[0, 0]]
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self.cost_in_ns, self.cost_out_ns = self._calibrate()

    # -- wrappers --------------------------------------------------------------------

    def nest(self, layer: str, fn: Callable) -> Callable:
        stack = self._stack
        calls, self_ns, child_calls = self.calls, self.self_ns, self.child_calls
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            frame = [0, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent = stack[-1]
                parent[0] += elapsed
                parent[1] += 1
                self_ns[layer] += elapsed - frame[0]
                calls[layer] += 1
                child_calls[layer] += frame[1]

        return traced

    def span(self, layer: str, fn: Callable) -> Callable:
        lock, span_ns, span_calls = self._lock, self.span_ns, self.span_calls
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                with lock:
                    span_ns[layer] += elapsed
                    span_calls[layer] += 1

        return traced

    def _calibrate(self) -> tuple[float, float]:
        """Per-call wrapper cost: inside the wrapped span, and outside it.

        ``cost_in`` is the self time recorded for an empty function.
        ``cost_out`` is what calling through the wrapper adds to the
        caller beyond that, against calling the empty function bare.
        The calibration calls are dropped from the ledger afterwards.
        """
        traced = self.nest("calibration", _empty)
        clock = time.perf_counter_ns
        rounds = []
        for _ in range(5):
            start = clock()
            for _ in range(_CALIBRATION_CALLS):
                _empty()
            bare = clock() - start
            before = self.self_ns["calibration"]
            start = clock()
            for _ in range(_CALIBRATION_CALLS):
                traced()
            wrapped = clock() - start
            inside = self.self_ns["calibration"] - before
            rounds.append(
                (inside / _CALIBRATION_CALLS, (wrapped - bare - inside) / _CALIBRATION_CALLS)
            )
        for counter in (self.calls, self.self_ns, self.child_calls):
            counter.pop("calibration", None)
        self._stack[0] = [0, 0]
        inside = sorted(cost for cost, _ in rounds)[len(rounds) // 2]
        outside = sorted(cost for _, cost in rounds)[len(rounds) // 2]
        return inside, max(0.0, outside)

    # -- installing ------------------------------------------------------------------

    def patch(self, owner, attr: str, layer: str, kind: str = "nest") -> None:
        """Swap ``owner.attr`` for a traced wrapper until :meth:`restore`.

        *owner* is a class (methods, classmethods), a module (functions
        bound there by ``from … import``) or an instance.
        """
        if isinstance(owner, (type, types.ModuleType)):
            raw = original = owner.__dict__[attr]
        else:
            raw, original = getattr(owner, attr), None
        wrap = self.nest if kind == "nest" else self.span
        if isinstance(raw, classmethod):
            replacement = classmethod(wrap(layer, raw.__func__))
        else:
            replacement = wrap(layer, raw)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def replace(self, owner, attr: str, replacement) -> None:
        """Swap a class or module attribute until :meth:`restore`."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is None:
                delattr(owner, attr)  # an instance attribute we shadowed
            else:
                setattr(owner, attr, original)

    # -- reading ---------------------------------------------------------------------

    def root_span_ns(self) -> tuple[int, int]:
        """(inclusive ns, calls) of top-level traced calls; resets them."""
        total, count = self._stack[0]
        self._stack[0] = [0, 0]
        return total, count

    def corrected_self_ns(self, layer: str) -> float:
        """Self time with the calibrated wrapper cost taken out."""
        return max(
            0.0,
            self.self_ns[layer]
            - self.calls[layer] * self.cost_in_ns
            - self.child_calls[layer] * self.cost_out_ns,
        )
