"""Wall-clock phase timers for the setup-time breakdown (Figure 6).

When a :class:`~repro.obs.tracer.Tracer` is installed (via
:func:`repro.obs.use_tracer`), every measured phase additionally opens a
``phase`` span, so kernel launches running inside the phase nest under it
in the exported trace; a raising phase body closes its span with an
``error`` attribute.  The timer's own accumulation is unchanged either way.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from ..obs.tracer import current_tracer, monotonic_clock

__all__ = ["PhaseTimer", "TimingBreakdown"]


@dataclass
class PhaseTimer:
    """Accumulates wall-clock time under a name (re-entrant not supported)."""

    name: str
    seconds: float = 0.0
    calls: int = 0

    @contextmanager
    def measure(self) -> Iterator[None]:
        tracer = current_tracer()
        span = tracer.start_span(self.name, category="phase") if tracer else None
        error = None
        start = monotonic_clock()
        try:
            yield
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            # Record even when the body raises: a partially failed run must
            # keep a truthful Figure-6 breakdown (the exception propagates).
            seconds = monotonic_clock() - start
            self.seconds += seconds
            self.calls += 1
            if span is not None:
                tracer.end_span(span, seconds=seconds, error=error)


@dataclass
class TimingBreakdown:
    """Named phase timers; renders the Figure 6 style breakdown."""

    phases: dict[str, PhaseTimer] = field(default_factory=dict)

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        timer = self.phases.setdefault(name, PhaseTimer(name))
        with timer.measure():
            yield

    @property
    def total_seconds(self) -> float:
        return sum(t.seconds for t in self.phases.values())

    def fractions(self) -> dict[str, float]:
        """Fraction of total time per phase (empty dict if nothing timed)."""
        total = self.total_seconds
        if total <= 0.0:
            return {}
        return {name: t.seconds / total for name, t in self.phases.items()}

    def as_dict(self) -> dict[str, float]:
        return {name: t.seconds for name, t in self.phases.items()}

    def merge(self, other: "TimingBreakdown") -> None:
        """Accumulate another breakdown into this one (matching names add)."""
        for name, timer in other.phases.items():
            mine = self.phases.setdefault(name, PhaseTimer(name))
            mine.seconds += timer.seconds
            mine.calls += timer.calls
