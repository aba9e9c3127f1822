"""Daemon-lifetime telemetry aggregation for the serve layer.

Per-request run reports (``repro.serve``) answer *what did this request
cost*; this module answers *what has the daemon been doing all along*.  One
:class:`Aggregator` is fed once per request and folds everything into three
daemon-lifetime views:

* **per-op latency histograms** — :class:`~repro.obs.metrics.Histogram`
  instruments whose bounded reservoirs make p50/p95/p99 available for the
  whole daemon lifetime at constant memory;
* **rolling time-windowed counters** (:class:`RollingCounter`) — requests,
  cache hits/misses/evictions, coalesced followers, batched members, kernel
  launches and simulated bytes over the trailing window (default 60 s), so
  "what is the traffic *right now*" is answerable without diffing
  snapshots;
* a **tail-based trace sampler** (:class:`TailSampler`) — full span trees
  are expensive to retain, so every request's trace is offered to the
  sampler and only the interesting tail survives: 100% of errored requests
  and successful requests slower than the current ``1 - slow_fraction``
  latency quantile.  Everything else is dropped *after* its numbers are
  folded into the aggregates, so sampling never changes a total.

:meth:`Aggregator.snapshot` serializes all of it as the
``repro.serve/stats/v2`` document that the daemon's ``stats`` op returns,
the Prometheus writer renders, and the telemetry JSONL log appends (see
:mod:`repro.obs.expose` and ``docs/OBSERVABILITY.md``).

Everything is thread-safe under one aggregator lock, and **all scheduling
is clock-injectable**: the default clock is the tracer's
:data:`~repro.obs.tracer.monotonic_clock`, and tests substitute a
deterministic fake (the raw-timer lint keeps this module off the raw
stdlib timers).
"""

from __future__ import annotations

import threading
from collections import deque

from .metrics import Histogram
from .tracer import json_safe, monotonic_clock

__all__ = [
    "Aggregator",
    "RollingCounter",
    "STATS_SCHEMA",
    "TailSampler",
]

#: Schema tag of the aggregate snapshot (the daemon's ``stats`` op, the
#: telemetry JSONL lines, the Prometheus writer's source).  v1 was the
#: bare ``{protocol, cache, metrics}`` stats payload; v2 adds uptime,
#: per-op latency quantiles, rolling windows, totals and the sampler.
STATS_SCHEMA = "repro.serve/stats/v2"

#: Window counter names an :class:`Aggregator` maintains.
WINDOW_COUNTERS = (
    "requests",
    "errors",
    "cache_hits",
    "cache_misses",
    "cache_evictions",
    "coalesced",
    "batched_members",
    "launches",
    "bytes",
)


class RollingCounter:
    """A counter over the trailing time window, as a ring of buckets.

    The window is divided into ``buckets`` equal slices; :meth:`inc` adds
    to the slice containing ``now`` and :meth:`total` sums the slices still
    inside the window.  Stale slices are recycled lazily by epoch stamp, so
    neither operation allocates.  Not thread-safe on its own — the owning
    :class:`Aggregator` serializes access under its lock.
    """

    def __init__(self, window_seconds: float = 60.0, buckets: int = 12):
        if window_seconds <= 0:
            raise ValueError(f"window must be positive, got {window_seconds}")
        if buckets < 1:
            raise ValueError(f"need at least one bucket, got {buckets}")
        self.window_seconds = float(window_seconds)
        self.n_buckets = int(buckets)
        self.bucket_seconds = self.window_seconds / self.n_buckets
        self._values = [0.0] * self.n_buckets
        self._epochs = [None] * self.n_buckets  # which slice each slot holds

    def _slot(self, now: float) -> int:
        epoch = int(now // self.bucket_seconds)
        i = epoch % self.n_buckets
        if self._epochs[i] != epoch:
            self._epochs[i] = epoch
            self._values[i] = 0.0
        return i

    def inc(self, now: float, amount: float = 1.0) -> None:
        self._values[self._slot(now)] += amount

    def total(self, now: float) -> float:
        epoch = int(now // self.bucket_seconds)
        return sum(
            v
            for v, e in zip(self._values, self._epochs)
            if e is not None and 0 <= epoch - e < self.n_buckets
        )


class TailSampler:
    """Retain full traces only for the interesting tail of the traffic.

    Decision rule, deterministic given the request sequence:

    * an **errored** request is always retained;
    * a **successful** request is retained iff its latency is *strictly
      greater* than the ``1 - slow_fraction`` quantile of all successful
      latencies observed so far (its own included) — with
      ``slow_fraction=0`` nothing qualifies (nothing exceeds the running
      max) and with ``slow_fraction=1`` everything is retained.

    The quantile lives in a deterministic-seed
    :class:`~repro.obs.metrics.Histogram` reservoir, so the threshold is
    reproducible for a given latency sequence.  Retained traces sit in a
    bounded ring (``capacity``, oldest evicted first); the counters keep
    the lifetime totals either way.
    """

    def __init__(self, slow_fraction: float = 0.05, capacity: int = 32):
        if not 0.0 <= slow_fraction <= 1.0:
            raise ValueError(
                f"slow fraction must be in [0, 1], got {slow_fraction}"
            )
        if capacity < 0:
            raise ValueError(f"trace capacity cannot be negative: {capacity}")
        self.slow_fraction = float(slow_fraction)
        self.capacity = int(capacity)
        self._latency = Histogram("sampler.success_latency", reservoir_seed=2022)
        self.retained: deque = deque(maxlen=capacity if capacity else 1)
        self.retained_errored = 0
        self.retained_slow = 0
        self.dropped = 0

    def admit(self, latency: float, *, errored: bool) -> bool:
        """Decide retention for one request (and fold its latency)."""
        if errored:
            self.retained_errored += 1
            return True
        self._latency.observe(latency)
        if self.slow_fraction >= 1.0:
            self.retained_slow += 1
            return True
        threshold = self._latency.quantile(1.0 - self.slow_fraction)
        if self.slow_fraction > 0.0 and threshold is not None and latency > threshold:
            self.retained_slow += 1
            return True
        self.dropped += 1
        return False

    def keep(self, record: dict) -> None:
        """Store a retained trace record in the bounded ring."""
        if self.capacity:
            self.retained.append(record)

    def stats(self) -> dict:
        return {
            "slow_fraction": self.slow_fraction,
            "capacity": self.capacity,
            "retained": len(self.retained),
            "retained_errored": self.retained_errored,
            "retained_slow": self.retained_slow,
            "dropped": self.dropped,
        }


class Aggregator:
    """Thread-safe daemon-lifetime aggregation, fed once per request.

    ``clock`` is any zero-argument callable returning monotonic seconds;
    the default is the tracer's :data:`~repro.obs.tracer.monotonic_clock`.
    The serve daemon measures request latency with this same clock
    (``aggregator.clock()`` before and after the dispatch), so an injected
    deterministic clock makes every latency — and therefore every quantile
    and every sampling decision — reproducible in tests.
    """

    def __init__(
        self,
        *,
        clock=None,
        window_seconds: float = 60.0,
        slow_trace_fraction: float = 0.05,
    ):
        self.clock = clock if clock is not None else monotonic_clock
        self._lock = threading.Lock()
        self.started = self.clock()
        self._ops: dict[str, dict] = {}  # op -> {count, errors, latency}
        self._windows = {
            name: RollingCounter(window_seconds)
            for name in WINDOW_COUNTERS
        }
        self.window_seconds = float(window_seconds)
        self.sampler = TailSampler(slow_trace_fraction)
        self._totals = {name: 0 for name in WINDOW_COUNTERS}
        self._last_evictions: float = 0
        self._fresh_traces: deque = deque()  # drained by the telemetry log

    # -- feeding -----------------------------------------------------------
    def _op_stats(self, op: str) -> dict:
        stats = self._ops.get(op)
        if stats is None:
            stats = {
                "count": 0,
                "errors": 0,
                "latency": Histogram(f"serve.latency.{op}"),
            }
            self._ops[op] = stats
        return stats

    def record_request(
        self,
        op: str,
        *,
        latency: float,
        error: str | None = None,
        cached: bool | None = None,
        coalesced: bool = False,
        batch_size: int = 0,
        launches: int = 0,
        bytes: int = 0,
        evictions_total: int | None = None,
        trace: list | None = None,
        request_id=None,
    ) -> bool:
        """Fold one finished request; returns whether its trace was retained.

        ``cached=None`` means the request never consulted the cache (``ping``,
        ``stats``, failed before keying).  ``evictions_total`` is the result
        cache's lifetime eviction counter — the aggregator diffs successive
        values into the rolling window.  ``trace`` is the request's span
        list (``Span.as_dict()`` rows); it is offered to the tail sampler
        *after* all aggregate folding, so retention never affects a total.
        """
        now = self.clock()
        with self._lock:
            stats = self._op_stats(op)
            stats["count"] += 1
            stats["latency"].observe(latency)
            self._bump("requests", now)
            if error is not None:
                stats["errors"] += 1
                self._bump("errors", now)
            if cached is True:
                self._bump("cache_hits", now)
            elif cached is False:
                self._bump("cache_misses", now)
            if coalesced:
                self._bump("coalesced", now)
            if batch_size > 1:
                self._bump("batched_members", now, batch_size)
            if launches:
                self._bump("launches", now, launches)
            if bytes:
                self._bump("bytes", now, bytes)
            if evictions_total is not None:
                delta = evictions_total - self._last_evictions
                self._last_evictions = evictions_total
                if delta > 0:
                    self._bump("cache_evictions", now, delta)
            # the sampling decision comes last: aggregates above are final
            # before the trace's fate is decided
            retained = self.sampler.admit(latency, errored=error is not None)
            if retained and trace is not None:
                record = json_safe({
                    "kind": "trace",
                    "op": op,
                    "request_id": request_id,
                    "latency_seconds": latency,
                    "error": error,
                    "spans": trace,
                })
                self.sampler.keep(record)
                self._fresh_traces.append(record)
            return retained

    def _bump(self, name: str, now: float, amount: float = 1) -> None:
        self._windows[name].inc(now, amount)
        self._totals[name] += amount

    def drain_traces(self) -> list:
        """Retained-trace records not yet written to the telemetry log."""
        with self._lock:
            out = list(self._fresh_traces)
            self._fresh_traces.clear()
        return out

    # -- snapshotting ------------------------------------------------------
    def snapshot(self, *, cache_stats: dict | None = None) -> dict:
        """The ``repro.serve/stats/v2`` aggregate document.

        ``cache_stats`` is :meth:`repro.serve.result_cache.ResultCache.stats`
        output; when given it is embedded with its derived ``hit_ratio``.
        """
        now = self.clock()
        with self._lock:
            ops = {
                op: {
                    "count": stats["count"],
                    "errors": stats["errors"],
                    "latency": stats["latency"].summary(),
                }
                for op, stats in sorted(self._ops.items())
            }
            window = {"seconds": self.window_seconds}
            window.update(
                {name: self._windows[name].total(now) for name in WINDOW_COUNTERS}
            )
            totals = dict(self._totals)
            lookups = totals["cache_hits"] + totals["cache_misses"]
            totals["hit_ratio"] = (
                totals["cache_hits"] / lookups if lookups else None
            )
            sampler = self.sampler.stats()
            sampler["traces"] = [
                {
                    "op": t["op"],
                    "request_id": t["request_id"],
                    "latency_seconds": t["latency_seconds"],
                    "error": t["error"],
                    "spans": len(t["spans"]),
                }
                for t in self.sampler.retained
            ]
        snap = {
            "schema": STATS_SCHEMA,
            "uptime_seconds": now - self.started,
            "ops": ops,
            "window": window,
            "totals": totals,
            "sampler": sampler,
        }
        if cache_stats is not None:
            cache = dict(cache_stats)
            lookups = cache.get("hits", 0) + cache.get("misses", 0)
            cache["hit_ratio"] = cache.get("hits", 0) / lookups if lookups else None
            snap["cache"] = cache
        return json_safe(snap)
