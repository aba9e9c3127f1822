"""Nested-span tracing — the structured counterpart of Nsight's timeline.

The paper's evaluation is built on instrumentation: per-kernel traffic
(Table 2), the setup-time breakdown (Figure 6), convergence curves
(Figure 4).  :class:`Tracer` records all of it as one tree of **spans** —
pipeline run → phase → kernel launch → solver iteration — each carrying
attributes (bytes moved, frontier lanes, residuals).  The span stream is
exportable as Chrome trace-event JSON (loadable in Perfetto or
``chrome://tracing``) and as JSONL, and the run-report builder in
:mod:`repro.obs.report` aggregates it into a machine-readable schema.

An *ambient* tracer, installed per thread, makes the instrumentation
zero-cost when off: every instrumented site asks :func:`current_tracer`
and skips all bookkeeping when none is installed.  Install one for the
dynamic extent of a run with :func:`use_tracer`::

    tracer = Tracer("extract")
    with use_tracer(tracer):
        extract_linear_forest(a, device=Device())
    tracer.write_chrome_trace("trace.json")

Timing reads :data:`monotonic_clock` (``time.perf_counter``).  This module
is the only place allowed to touch the raw clock (enforced by
``tests/test_no_raw_timers.py``), so spans, kernel launch records, phase
timers and the daemon's aggregation all read one clock.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Iterator

__all__ = [
    "SCHEMA_VERSION",
    "Span",
    "Tracer",
    "current_tracer",
    "monotonic_clock",
    "trace_span",
    "use_tracer",
]

#: Version tag stamped into every export (bump on incompatible changes).
SCHEMA_VERSION = "repro.obs/v1"

#: The one sanctioned monotonic clock of the library.  Code outside this
#: module must not call ``time.perf_counter`` directly
#: (``tests/test_no_raw_timers.py``): ``Device.launch`` and ``PhaseTimer``
#: read this, and the aggregation/exposition layers take an injectable
#: ``clock`` defaulting to it, so tests can substitute a deterministic clock.
monotonic_clock = time.perf_counter


def json_safe(value):
    """Coerce numpy scalars/arrays (and nested containers) to JSON types."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(k): json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    # numpy scalars expose item(); arrays expose tolist()
    if hasattr(value, "item") and getattr(value, "ndim", None) in (None, 0):
        return json_safe(value.item())
    if hasattr(value, "tolist"):
        return json_safe(value.tolist())
    return str(value)


@dataclass
class Span:
    """One timed region of a run.

    ``start``/``end`` are seconds relative to the owning tracer's epoch;
    ``end`` is ``None`` while the span is open.  ``category`` classifies the
    level of the tree: ``"run"`` (a pipeline entry point), ``"phase"`` (a
    Figure-6 phase), ``"stage"`` (an algorithm stage such as a scan or a
    proposition round), ``"kernel"`` (one simulated launch), ``"solver"``.
    """

    name: str
    category: str
    span_id: int
    parent_id: int | None
    start: float
    end: float | None = None
    attributes: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float | None:
        """Duration, or ``None`` while the span is still open."""
        if self.end is None:
            return None
        return self.end - self.start

    def as_dict(self) -> dict:
        """JSONL row for this span (all values JSON-safe)."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "category": self.category,
            "start": self.start,
            "end": self.end,
            "seconds": self.seconds,
            "attributes": json_safe(self.attributes),
        }


class Tracer:
    """Records a tree of nested :class:`Span`\\ s.

    Spans nest through an explicit stack: :meth:`start_span` parents the new
    span under the innermost open one, :meth:`end_span` closes it.  The
    :meth:`span` context manager pairs the two and stamps an ``error``
    attribute when the body raises (the exception propagates) — a failed
    run keeps a truthful trace, mirroring the exception-safe accounting of
    :meth:`repro.device.device.Device.launch`.
    """

    def __init__(self, name: str = "run"):
        self.name = name
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._epoch = monotonic_clock()

    # -- recording ---------------------------------------------------------
    def _now(self) -> float:
        return monotonic_clock() - self._epoch

    def start_span(self, name: str, *, category: str = "span", **attributes) -> Span:
        """Open a span nested under the innermost open span."""
        span = Span(
            name=name,
            category=category,
            span_id=len(self.spans),
            parent_id=self._stack[-1].span_id if self._stack else None,
            start=self._now(),
            attributes={k: v for k, v in attributes.items() if v is not None},
        )
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end_span(self, span: Span, **attributes) -> None:
        """Close ``span``; ``None``-valued attributes are dropped."""
        if span.end is None:
            span.end = self._now()
        for key, value in attributes.items():
            if value is not None:
                span.attributes[key] = value
        # tolerate out-of-order closes: drop the span (and anything the
        # caller abandoned above it) from the open stack
        if span in self._stack:
            while self._stack and self._stack[-1] is not span:
                self._stack.pop()
            self._stack.pop()

    @contextmanager
    def span(self, name: str, *, category: str = "span", **attributes) -> Iterator[Span]:
        """``with tracer.span(...)``: open/close a span around the body."""
        s = self.start_span(name, category=category, **attributes)
        error = None
        try:
            yield s
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            self.end_span(s, error=error)

    # -- queries -----------------------------------------------------------
    def find(self, *, category: str | None = None, name_prefix: str | None = None) -> list[Span]:
        """Spans filtered by category and/or name prefix, in start order."""
        out = []
        for s in self.spans:
            if category is not None and s.category != category:
                continue
            if name_prefix is not None and not s.name.startswith(name_prefix):
                continue
            out.append(s)
        return out

    def roots(self) -> list[Span]:
        return [s for s in self.spans if s.parent_id is None]

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    def ancestors(self, span: Span) -> list[Span]:
        """Chain of enclosing spans, innermost first."""
        out = []
        while span.parent_id is not None:
            span = self.spans[span.parent_id]
            out.append(span)
        return out

    # -- export ------------------------------------------------------------
    def to_chrome_trace(self) -> dict:
        """Chrome trace-event JSON (complete ``"X"`` events, µs timestamps).

        Load the written file in Perfetto (https://ui.perfetto.dev) or
        ``chrome://tracing``; events on one thread nest by time containment,
        which reproduces the span tree exactly because spans are strictly
        nested.
        """
        now = self._now()
        events = []
        for s in self.spans:
            end = s.end if s.end is not None else now
            events.append(
                {
                    "name": s.name,
                    "cat": s.category,
                    "ph": "X",
                    "ts": s.start * 1e6,
                    "dur": max(0.0, (end - s.start) * 1e6),
                    "pid": 1,
                    "tid": 1,
                    "args": json_safe(s.attributes),
                }
            )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"tracer": self.name, "schema": SCHEMA_VERSION},
        }

    def to_jsonl(self) -> str:
        """One JSON object per span (ids + parent ids preserved)."""
        return "\n".join(json.dumps(s.as_dict()) for s in self.spans)

    def write_chrome_trace(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.to_chrome_trace(), f, indent=1)
            f.write("\n")

    def write_jsonl(self, path) -> None:
        with open(path, "w") as f:
            text = self.to_jsonl()
            f.write(text + "\n" if text else "")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tracer(name={self.name!r}, spans={len(self.spans)})"


# -- the ambient tracer ----------------------------------------------------
#: The innermost tracer installed in this context; a new thread starts
#: with none, so concurrent requests never record into each other's.
_CURRENT: ContextVar[Tracer | None] = ContextVar("repro.obs.tracer", default=None)


def current_tracer() -> Tracer | None:
    """The innermost tracer installed with :func:`use_tracer`, or ``None``."""
    return _CURRENT.get()


@contextmanager
def use_tracer(tracer: Tracer) -> Iterator[Tracer]:
    """Install ``tracer`` as the ambient tracer for the ``with`` body."""
    token = _CURRENT.set(tracer)
    try:
        yield tracer
    finally:
        _CURRENT.reset(token)


@contextmanager
def trace_span(name: str, *, category: str = "span", **attributes) -> Iterator[Span | None]:
    """Span on the ambient tracer — yields ``None`` (no-op) when tracing is off.

    The instrumentation hook used throughout the library: sites write

    ``with trace_span("break-cycles", category="stage") as span: ...``

    and pay nothing unless a tracer is installed.  ``span.attributes`` may
    be updated inside the body to attach results known only at the end.
    """
    tracer = current_tracer()
    if tracer is None:
        yield None
        return
    with tracer.span(name, category=category, **attributes) as s:
        yield s
