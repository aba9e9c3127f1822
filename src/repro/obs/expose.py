"""Exposition of the aggregate telemetry: Prometheus text + JSONL snapshots.

Two consumers of :meth:`repro.obs.agg.Aggregator.snapshot`:

* :func:`render_prometheus` serializes one snapshot into the Prometheus
  text exposition format (version 0.0.4): ``# HELP``/``# TYPE`` headers,
  ``repro_``-prefixed metric names, per-op labels, and latency quantiles
  as a proper ``summary`` (``{quantile="0.5"}`` samples plus ``_sum`` /
  ``_count``).  :func:`write_prometheus` rewrites a file atomically (temp
  file + ``os.replace``, the repo-wide persistence discipline) so a
  scraping agent never reads a torn exposition.
* :class:`TelemetrySchedule` drives both periodic outputs for the daemon:
  on every :meth:`~TelemetrySchedule.tick` (the server calls it after each
  request) it drains freshly retained traces into the JSONL telemetry log,
  and — whenever the configured interval has elapsed on the injectable
  clock — appends a full snapshot line and rewrites the Prometheus file.
  The log is append-only JSONL with a ``kind`` discriminator per line
  (``snapshot`` or ``trace``), so a daemon's whole life is replayable by
  ``repro obs report`` (see ``docs/OBSERVABILITY.md``).

Like :mod:`repro.obs.agg`, scheduling is clock-injectable and this module
never touches the raw stdlib timers directly (raw-timer lint); it defaults
to the tracer's :data:`~repro.obs.tracer.monotonic_clock`.
"""

from __future__ import annotations

import json
import re
import threading
from pathlib import Path

from .._atomic import atomic_open
from .tracer import monotonic_clock

__all__ = [
    "TelemetrySchedule",
    "prometheus_lines",
    "render_prometheus",
    "write_prometheus",
]

#: Prefix of every exposed metric name.
PROM_PREFIX = "repro"

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")


def _name(*parts: str) -> str:
    name = "_".join((PROM_PREFIX, *parts)).replace(".", "_").replace("-", "_")
    if not _NAME_OK.match(name):  # pragma: no cover - all callers are literal
        raise ValueError(f"invalid prometheus metric name {name!r}")
    return name


def _escape_label(value) -> str:
    return (
        str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _labels(**labels) -> str:
    if not labels:
        return ""
    body = ",".join(
        '{}="{}"'.format(k, _escape_label(v)) for k, v in sorted(labels.items())
    )
    return "{" + body + "}"


def _value(v) -> str:
    if v is None:
        return "NaN"
    if isinstance(v, bool):
        return "1" if v else "0"
    return repr(float(v))


class _Writer:
    """Accumulates exposition lines, one ``# TYPE`` block per metric."""

    def __init__(self):
        self.lines: list[str] = []

    def header(self, name: str, kind: str, help_text: str) -> None:
        self.lines.append(f"# HELP {name} {help_text}")
        self.lines.append(f"# TYPE {name} {kind}")

    def sample(self, name: str, value, **labels) -> None:
        self.lines.append(f"{name}{_labels(**labels)} {_value(value)}")


def prometheus_lines(snapshot: dict) -> list[str]:
    """Exposition lines for one ``repro.serve/stats/v2`` snapshot dict."""
    w = _Writer()

    n = _name("uptime_seconds")
    w.header(n, "gauge", "Seconds since the daemon's aggregator started.")
    w.sample(n, snapshot.get("uptime_seconds", 0.0))

    ops = snapshot.get("ops", {})
    n = _name("requests_total")
    w.header(n, "counter", "Requests handled, by op.")
    for op, stats in ops.items():
        w.sample(n, stats.get("count", 0), op=op)
    n = _name("request_errors_total")
    w.header(n, "counter", "Requests that failed, by op.")
    for op, stats in ops.items():
        w.sample(n, stats.get("errors", 0), op=op)

    n = _name("request_latency_seconds")
    w.header(
        n, "summary", "Request latency by op (reservoir-estimated quantiles)."
    )
    for op, stats in ops.items():
        latency = stats.get("latency", {})
        for key, q in (("p50", "0.5"), ("p95", "0.95"), ("p99", "0.99")):
            w.sample(n, latency.get(key), op=op, quantile=q)
        w.sample(n + "_sum", latency.get("total", 0.0), op=op)
        w.sample(n + "_count", latency.get("count", 0), op=op)

    # lifetime totals; requests/errors are omitted here because the per-op
    # counters above already expose them (sum() over the op label)
    totals = snapshot.get("totals", {})
    for key, kind, help_text in (
        ("cache_hits", "counter", "Total result-cache hits (incl. coalesced)."),
        ("cache_misses", "counter", "Total result-cache misses."),
        ("cache_evictions", "counter", "Total result-cache evictions."),
        ("coalesced", "counter", "Requests served as coalesced followers."),
        ("batched_members", "counter", "Cold misses that shared a batched run."),
        ("launches", "counter", "Simulated kernel launches."),
        ("bytes", "counter", "Simulated global-memory traffic in bytes."),
    ):
        n = _name(key, "total")
        w.header(n, kind, help_text)
        w.sample(n, totals.get(key, 0))
    n = _name("cache_hit_ratio")
    w.header(n, "gauge", "Lifetime cache hit ratio (hits / lookups).")
    w.sample(n, totals.get("hit_ratio"))

    window = snapshot.get("window", {})
    window_seconds = window.get("seconds", 0.0)
    n = _name("window_seconds")
    w.header(n, "gauge", "Width of the rolling window in seconds.")
    w.sample(n, window_seconds)
    n = _name("window")
    w.header(n, "gauge", "Rolling-window totals, by counter name.")
    for key, value in window.items():
        if key != "seconds":
            w.sample(n, value, counter=key)

    cache = snapshot.get("cache")
    if cache:
        for key, kind, help_text in (
            ("entries", "gauge", "Result-cache entries."),
            ("bytes", "gauge", "Result-cache resident bytes."),
            ("hits", "counter", "Result-cache store hits."),
            ("misses", "counter", "Result-cache store misses."),
            ("evictions", "counter", "Result-cache store evictions."),
        ):
            n = _name("result_cache", key)
            w.header(n, kind, help_text)
            w.sample(n, cache.get(key, 0))

    sampler = snapshot.get("sampler")
    if sampler:
        n = _name("traces_retained_total")
        w.header(n, "counter", "Traces retained by the tail sampler, by reason.")
        w.sample(n, sampler.get("retained_errored", 0), reason="error")
        w.sample(n, sampler.get("retained_slow", 0), reason="slow")
        n = _name("traces_dropped_total")
        w.header(n, "counter", "Successful-request traces folded and dropped.")
        w.sample(n, sampler.get("dropped", 0))

    return w.lines


def render_prometheus(snapshot: dict) -> str:
    """One-shot Prometheus text exposition of a snapshot (ends in newline)."""
    return "\n".join(prometheus_lines(snapshot)) + "\n"


def write_prometheus(snapshot: dict, path) -> None:
    """Atomically (re)write the Prometheus exposition file at ``path``."""
    with atomic_open(path) as fh:
        fh.write(render_prometheus(snapshot))


class TelemetrySchedule:
    """Interval-driven exposition: Prometheus rewrite + JSONL snapshot append.

    ``snapshot_fn`` produces the current stats-v2 document (the server
    passes its ``stats`` method so snapshots include cache stats);
    ``aggregator`` supplies freshly retained traces.  The schedule owns no
    thread: the daemon calls :meth:`tick` after each request and
    :meth:`close` on shutdown, and the injectable ``clock`` decides when a
    tick is due — deterministic under a fake clock, and a no-op object when
    neither output path is configured.
    """

    def __init__(
        self,
        snapshot_fn,
        aggregator,
        *,
        prom_path=None,
        telemetry_path=None,
        interval: float = 10.0,
        clock=None,
    ):
        if interval <= 0:
            raise ValueError(f"telemetry interval must be positive, got {interval}")
        self.snapshot_fn = snapshot_fn
        self.aggregator = aggregator
        self.prom_path = Path(prom_path) if prom_path is not None else None
        self.telemetry_path = (
            Path(telemetry_path) if telemetry_path is not None else None
        )
        self.interval = float(interval)
        self.clock = clock if clock is not None else monotonic_clock
        self.snapshots_written = 0
        self._last: float | None = None
        self._lock = threading.Lock()
        self._closed = False

    @property
    def enabled(self) -> bool:
        return self.prom_path is not None or self.telemetry_path is not None

    def _append_jsonl(self, records: list) -> None:
        self.telemetry_path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.telemetry_path, "a", encoding="utf-8") as fh:
            for record in records:
                fh.write(json.dumps(record, sort_keys=True) + "\n")

    def tick(self, *, force: bool = False) -> bool:
        """Emit if due (or forced); returns whether a snapshot was emitted.

        Always drains retained traces into the telemetry log first, so a
        trace is on disk by the request after its retention at the latest.
        """
        if not self.enabled:
            return False
        with self._lock:
            if self._closed:
                return False
            if self.telemetry_path is not None:
                traces = self.aggregator.drain_traces()
                if traces:
                    self._append_jsonl(traces)
            now = self.clock()
            due = force or self._last is None or now - self._last >= self.interval
            if not due:
                return False
            self._last = now
            snapshot = self.snapshot_fn()
            if self.telemetry_path is not None:
                self._append_jsonl([{"kind": "snapshot", "at": now, **snapshot}])
            if self.prom_path is not None:
                write_prometheus(snapshot, self.prom_path)
            self.snapshots_written += 1
            return True

    def close(self) -> None:
        """Final forced emission (idempotent) — the daemon's last word."""
        if not self.enabled:
            return
        self.tick(force=True)
        with self._lock:
            self._closed = True
