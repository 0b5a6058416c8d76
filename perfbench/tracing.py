"""Outside-in span recording for the traced benchmark run.

Nothing in ``src/`` is modified.  The recorder wraps public functions of
the program (and ``StageCounters.add``, through which every built-in
stage timer reports) by replacing the attribute on its class or module
for the duration of one traced op, and restores the original afterwards.
Spans live in memory as ``(op_id, name, start, end, attrs)`` tuples and
are written out once, when the run ends.  Parents are assigned after
the fact by time containment within an op: the benchmark is a closed
loop with one client, so the spans of one op nest in time.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable

Span = tuple[int, str, float, float, dict | None]


class SpanRecorder:
    """Collects spans for traced ops; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op_id = -1
        self.missing: set[str] = set()
        self._installed: list[tuple[Any, str, Any]] = []
        self._targets: list[tuple[Any, str, Callable]] = []
        #: id(StageCounters instance) -> layer name for its stage spans.
        self.counter_layers: dict[int, str] = {}

    # -- targets -----------------------------------------------------------

    def target(
        self,
        owner: Any,
        attr: str,
        name: str,
        attrs: Callable[..., dict] | None = None,
    ) -> None:
        """Register ``owner.attr`` to be wrapped as span ``name``.

        ``attrs(args, kwargs, result)`` may return extra fields for the
        span (e.g. a byte count); ``result`` is None if the call raised.
        A target the program no longer has is recorded in
        :attr:`missing` instead of failing the run, so a later refactor
        shows up as a missing layer, not a crash.
        """
        if not hasattr(owner, attr):
            self.missing.add(name)
            return
        self._targets.append(
            (owner, attr,
             lambda original: self._wrap(original, name, attrs))
        )

    def target_stage_counters(self, counters_cls: type) -> None:
        """Record a span for every ``StageCounters.add`` sample."""
        self._targets.append((counters_cls, "add", self._stage_add_wrapper))

    def install(self, op_id: int) -> None:
        """Wrap every registered target for op ``op_id``."""
        self.op_id = op_id
        for owner, attr, make_wrapper in self._targets:
            original = getattr(owner, attr)
            if isinstance(owner, type):
                original = owner.__dict__.get(attr, original)
            setattr(owner, attr, make_wrapper(original))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn: Callable, name: str, attrs: Callable | None):
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                extra = attrs(args, kwargs, result) if attrs else None
                spans.append((self.op_id, name, start, end, extra))

        return wrapper

    def _stage_add_wrapper(self, original: Callable) -> Callable:
        """Wrapper for ``StageCounters.add``: one span per stage sample.

        Stage timers report ``elapsed_s`` right when the stage ends, so
        the span is ``[now - elapsed_s, now]``; the counter instance
        decides the layer prefix (``core.system`` or
        ``phy.error_model``).
        """
        spans = self.spans
        layers = self.counter_layers
        clock = time.perf_counter

        @functools.wraps(original)
        def add(counters, stage, elapsed_s, count=1):
            end = clock()
            original(counters, stage, elapsed_s, count)
            layer = layers.get(id(counters), "counters")
            spans.append(
                (self.op_id, f"{layer}.{stage}", end - elapsed_s, end,
                 {"count": count})
            )

        return add

    def add_span(
        self, name: str, start: float, end: float, attrs: dict | None = None
    ) -> None:
        """Record a span measured by the benchmark's own code."""
        self.spans.append((self.op_id, name, start, end, attrs))

    def op_spans(self, op_id: int) -> list[Span]:
        return [span for span in self.spans if span[0] == op_id]


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def with_parents(spans: list[Span]) -> list[dict]:
    """Spans of one op as dicts with ``id`` and ``parent`` by containment.

    The longest span that starts first becomes the outer one, so the
    op span (recorded by the harness around the whole op) is the root.
    """
    ordered = sorted(spans, key=lambda s: (s[2], -(s[3] - s[2])))
    out: list[dict] = []
    stack: list[dict] = []
    for index, (op_id, name, start, end, attrs) in enumerate(ordered):
        while stack and not (start >= stack[-1]["start"]
                             and end <= stack[-1]["end"]):
            stack.pop()
        record = {
            "id": index,
            "op": op_id,
            "name": name,
            "start": start,
            "end": end,
            "parent": stack[-1]["id"] if stack else None,
        }
        if attrs:
            record["attrs"] = attrs
        out.append(record)
        stack.append(record)
    return out


def self_times(records: list[dict]) -> dict[str, float]:
    """Per span name: duration minus the time its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for record in records:
        if record["parent"] is not None:
            children.setdefault(record["parent"], []).append(
                (record["start"], record["end"])
            )
    totals: dict[str, float] = {}
    for record in records:
        own = (record["end"] - record["start"]) - union_length(
            children.get(record["id"], [])
        )
        totals[record["name"]] = totals.get(record["name"], 0.0) + own
    return totals
