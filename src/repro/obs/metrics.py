"""Counters, gauges and histograms — the metric half of :mod:`repro.obs`.

Where spans (:mod:`repro.obs.tracer`) answer *when and under what* time was
spent, metrics answer *how much in total*: launch counts, bytes of simulated
traffic, frontier occupancy, solver iterations.  A
:class:`MetricsRegistry` holds the three instrument kinds under dotted
names (``kernel.launches``, ``solver.relative_residual``); its
:meth:`~MetricsRegistry.as_dict` snapshot becomes the ``metrics`` section
of the :mod:`~repro.obs.report` RunReport.

All three instruments are **thread-safe**: the serve daemon mutates one
shared registry from every worker thread, so ``inc``/``set``/``observe``
take a per-instrument lock and the registry's get-or-create takes a
registry lock.  (Per-request registries never contend; the locks exist for
the daemon-lifetime one and cost one uncontended acquire elsewhere.)

:class:`Histogram` keeps a streaming summary (count/total/min/max/mean)
*plus* a bounded reservoir of observations (Vitter's algorithm R with a
deterministic per-name seed), which makes p50/p95/p99 quantiles available
from :meth:`Histogram.quantile` and :meth:`Histogram.summary` without
retaining the full series.  While fewer observations than the reservoir
size have arrived, the quantiles are exact.

Like the tracer, a registry can be installed ambiently with
:func:`use_metrics`; instrumented sites ask :func:`current_metrics` and do
nothing when none is installed.
"""

from __future__ import annotations

import math
import random
import threading
import zlib
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Iterator

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "current_metrics",
    "use_metrics",
]

#: Default bound on the quantile reservoir of a :class:`Histogram`.  Below
#: this many observations the reported quantiles are exact; beyond it they
#: are estimates over a uniform sample.
DEFAULT_RESERVOIR_SIZE = 512

#: The quantiles :meth:`Histogram.summary` reports.
SUMMARY_QUANTILES = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))


@dataclass
class Counter:
    """Monotone accumulator (launch counts, bytes, iterations)."""

    name: str
    value: float = 0

    def __post_init__(self):
        self._lock = threading.Lock()

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (got {amount})")
        with self._lock:
            self.value += amount


@dataclass
class Gauge:
    """Last-write-wins value (a fraction, a final residual)."""

    name: str
    value: float | None = None

    def __post_init__(self):
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value


@dataclass
class Histogram:
    """Streaming summary of observations plus a bounded quantile reservoir.

    The full series is never retained — per-launch series belong in span
    attributes; the histogram keeps the streaming aggregate and a uniform
    reservoir sample (Vitter's algorithm R) from which
    :meth:`quantile`/:meth:`summary` estimate p50/p95/p99.  The reservoir's
    RNG is seeded deterministically from the instrument name (or an explicit
    ``reservoir_seed``), so two histograms fed the same sequence report the
    same quantiles — run reports stay reproducible.

    ``observe`` rejects NaN with :class:`ValueError`: a NaN would poison
    ``total``/``mean`` silently and sort unpredictably in the reservoir.
    """

    name: str
    count: int = 0
    total: float = 0.0
    min: float | None = None
    max: float | None = None
    reservoir_size: int = DEFAULT_RESERVOIR_SIZE
    reservoir_seed: int | None = None

    def __post_init__(self):
        if self.reservoir_size < 1:
            raise ValueError(
                f"histogram {self.name!r} needs a positive reservoir size "
                f"(got {self.reservoir_size})"
            )
        self._lock = threading.Lock()
        seed = self.reservoir_seed
        if seed is None:
            seed = zlib.crc32(self.name.encode())  # stable across processes
        self._rng = random.Random(seed)
        self._reservoir: list[float] = []

    def observe(self, value: float) -> None:
        value = float(value)
        if math.isnan(value):
            raise ValueError(f"histogram {self.name!r} rejects NaN observations")
        with self._lock:
            self.count += 1
            self.total += value
            self.min = value if self.min is None else min(self.min, value)
            self.max = value if self.max is None else max(self.max, value)
            if len(self._reservoir) < self.reservoir_size:
                self._reservoir.append(value)
            else:
                # algorithm R: the k-th observation replaces a reservoir
                # slot with probability reservoir_size / k
                j = self._rng.randrange(self.count)
                if j < self.reservoir_size:
                    self._reservoir[j] = value

    @property
    def mean(self) -> float | None:
        return self.total / self.count if self.count else None

    def samples(self) -> list[float]:
        """The current reservoir contents (a copy, unsorted)."""
        with self._lock:
            return list(self._reservoir)

    def quantile(self, q: float) -> float | None:
        """Nearest-rank quantile over the reservoir; ``None`` when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            ordered = sorted(self._reservoir)
        if not ordered:
            return None
        rank = max(1, math.ceil(q * len(ordered)))
        return ordered[rank - 1]

    def summary(self) -> dict:
        with self._lock:
            ordered = sorted(self._reservoir)
            out = {
                "count": self.count,
                "total": self.total,
                "min": self.min,
                "max": self.max,
                "mean": self.mean,
            }
        for key, q in SUMMARY_QUANTILES:
            if ordered:
                rank = max(1, math.ceil(q * len(ordered)))
                out[key] = ordered[rank - 1]
            else:
                out[key] = None
        return out


@dataclass
class MetricsRegistry:
    """Get-or-create store for the three instrument kinds (thread-safe)."""

    counters: dict[str, Counter] = field(default_factory=dict)
    gauges: dict[str, Gauge] = field(default_factory=dict)
    histograms: dict[str, Histogram] = field(default_factory=dict)

    def __post_init__(self):
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        with self._lock:
            return self.counters.setdefault(name, Counter(name))

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            return self.gauges.setdefault(name, Gauge(name))

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            return self.histograms.setdefault(name, Histogram(name))

    def as_dict(self) -> dict:
        """Plain-type snapshot (the RunReport ``metrics`` section)."""
        with self._lock:
            counters = sorted(self.counters.items())
            gauges = sorted(self.gauges.items())
            histograms = sorted(self.histograms.items())
        return {
            "counters": {n: c.value for n, c in counters},
            "gauges": {n: g.value for n, g in gauges},
            "histograms": {n: h.summary() for n, h in histograms},
        }


# -- the ambient registry --------------------------------------------------
#: The innermost registry installed in this context (per thread, as the tracer).
_CURRENT: ContextVar[MetricsRegistry | None] = ContextVar("repro.obs.metrics", default=None)


def current_metrics() -> MetricsRegistry | None:
    """The innermost registry installed with :func:`use_metrics`, or ``None``."""
    return _CURRENT.get()


@contextmanager
def use_metrics(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Install ``registry`` as the ambient registry for the ``with`` body."""
    token = _CURRENT.set(registry)
    try:
        yield registry
    finally:
        _CURRENT.reset(token)
