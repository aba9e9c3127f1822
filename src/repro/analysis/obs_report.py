"""Offline analysis of the telemetry artifacts — ``repro obs report``/``diff``.

The observability layer leaves four kinds of JSON artifacts behind:

* a **telemetry JSONL log** (``repro serve --telemetry-log``): one
  ``{"kind": "snapshot" | "trace", ...}`` object per line;
* a **stats-v2 snapshot** (``repro.serve/stats/v2``): the daemon's
  ``stats`` op response, or one ``snapshot`` line of the log;
* a **run report** (``repro.obs/run-report/v2``): one instrumented run,
  written by ``--metrics-out`` or embedded in every serve response;
* a **bench report** (``repro.obs/bench-report/v1``):
  ``BENCH_observability.json``, the per-matrix launch/traffic baseline the
  benchmark session emits.

:func:`load_obs_document` sniffs which kind a file is,
:func:`flatten_metrics` projects any of them onto one flat
``dotted.name -> number`` namespace, :func:`render_obs_report` renders a
human summary (tables + the repo's ASCII sparklines for anything with a
time axis), and :func:`diff_metrics` compares two flattened documents with
*direction-aware* relative thresholds — a latency that grew 50% is a
regression, a hit ratio that grew 50% is an improvement.  The ``repro obs``
CLI family is a thin shell over these four functions, and CI uses the diff
(loose threshold, warn-only) to call out drift between a fresh bench report
and the committed one.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .ascii_plot import ascii_line_plot
from .tables import render_table

__all__ = [
    "diff_metrics",
    "flatten_metrics",
    "load_obs_document",
    "metric_direction",
    "render_diff",
    "render_obs_report",
]

#: Substrings classifying a metric's *bad* growth direction.  Checked in
#: order: a "better" match wins (so ``cache.hit_ratio`` is an improvement
#: even though ``hit`` alone would be neutral), then a "worse" match, then
#: neutral (reported, never flagged).
_HIGHER_BETTER = ("hit_ratio", "coverage", "converged")
_HIGHER_WORSE = (
    "latency", "seconds", "bytes", "launch", "error", "evict", "miss",
    "dropped", "iterations",
)


def metric_direction(name: str) -> int:
    """-1 when growth is bad, +1 when growth is good, 0 when neutral."""
    lowered = name.lower()
    if any(tag in lowered for tag in _HIGHER_BETTER):
        return 1
    if any(tag in lowered for tag in _HIGHER_WORSE):
        return -1
    return 0


# -- loading ----------------------------------------------------------------
def load_obs_document(path) -> dict:
    """Load + classify one telemetry artifact.

    Returns ``{"kind": ..., "path": ..., "document": ...}`` where ``kind``
    is one of ``telemetry-log``, ``stats-snapshot``, ``run-report``,
    ``bench-report``.  A telemetry log's ``document`` is
    ``{"snapshots": [...], "traces": [...]}`` in file order.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".jsonl":
        return {"kind": "telemetry-log", "path": str(path),
                "document": _parse_telemetry_log(text, path)}
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object at top level")
    schema = doc.get("schema", "")
    if schema.startswith("repro.serve/stats/"):
        kind = "stats-snapshot"
    elif schema.startswith("repro.obs/run-report/"):
        kind = "run-report"
    elif schema.startswith("repro.obs/bench-report/"):
        kind = "bench-report"
    else:
        raise ValueError(
            f"{path}: unrecognized schema {schema!r} (expected a stats "
            "snapshot, run report, bench report, or .jsonl telemetry log)"
        )
    return {"kind": kind, "path": str(path), "document": doc}


def _parse_telemetry_log(text: str, path) -> dict:
    snapshots: list = []
    traces: list = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: bad JSONL line: {exc}") from None
        kind = record.get("kind") if isinstance(record, dict) else None
        if kind == "snapshot":
            snapshots.append(record)
        elif kind == "trace":
            traces.append(record)
        else:
            raise ValueError(
                f"{path}:{lineno}: telemetry line has unknown kind {kind!r}"
            )
    if not snapshots and not traces:
        raise ValueError(f"{path}: telemetry log is empty")
    return {"snapshots": snapshots, "traces": traces}


# -- flattening -------------------------------------------------------------
def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and not (
        isinstance(v, float) and math.isnan(v)
    )


def flatten_metrics(loaded: dict) -> dict:
    """Project a loaded document onto flat ``dotted.name -> number``."""
    kind = loaded["kind"]
    doc = loaded["document"]
    if kind == "telemetry-log":
        out: dict = {}
        if doc["snapshots"]:
            out.update(_flatten_snapshot(doc["snapshots"][-1]))
        out["traces.logged"] = len(doc["traces"])
        out["snapshots.logged"] = len(doc["snapshots"])
        return out
    if kind == "stats-snapshot":
        return _flatten_snapshot(doc)
    if kind == "run-report":
        return _flatten_run_report(doc)
    if kind == "bench-report":
        return _flatten_bench_report(doc)
    raise ValueError(f"cannot flatten document kind {kind!r}")


def _put(out: dict, name: str, value) -> None:
    if _is_number(value):
        out[name] = float(value)


def _flatten_snapshot(snap: dict) -> dict:
    out: dict = {}
    for op, stats in (snap.get("ops") or {}).items():
        _put(out, f"ops.{op}.count", stats.get("count"))
        _put(out, f"ops.{op}.errors", stats.get("errors"))
        latency = stats.get("latency") or {}
        for key in ("mean", "p50", "p95", "p99", "max"):
            _put(out, f"ops.{op}.latency.{key}", latency.get(key))
    for key, value in (snap.get("totals") or {}).items():
        _put(out, f"totals.{key}", value)
    for key, value in (snap.get("cache") or {}).items():
        _put(out, f"cache.{key}", value)
    sampler = snap.get("sampler") or {}
    for key in ("retained_errored", "retained_slow", "dropped"):
        _put(out, f"sampler.{key}", sampler.get(key))
    return out


def _flatten_run_report(report: dict) -> dict:
    out: dict = {}
    for key, value in (report.get("totals") or {}).items():
        _put(out, f"totals.{key}", value)
    for key, value in (report.get("serve") or {}).items():
        _put(out, f"serve.{key}", value)
    for name, phase in (report.get("phases") or {}).items():
        _put(out, f"phases.{name}.seconds", phase.get("seconds"))
    for name, summary in (
        (report.get("metrics") or {}).get("histograms") or {}
    ).items():
        for key in ("count", "mean", "p50", "p95", "p99"):
            _put(out, f"metrics.{name}.{key}", summary.get(key))
    return out


def _flatten_bench_report(report: dict) -> dict:
    out: dict = {}
    agg = {"launches": 0.0, "bytes": 0.0, "kernel_seconds": 0.0}
    for run in report.get("runs") or []:
        matrix = run.get("matrix", "?")
        _put(out, f"runs.{matrix}.coverage", run.get("coverage"))
        totals = run.get("totals") or {}
        for key in ("launches", "bytes", "kernel_seconds", "phase_seconds"):
            _put(out, f"runs.{matrix}.{key}", totals.get(key))
            if key in agg and _is_number(totals.get(key)):
                agg[key] += float(totals[key])
    for key, value in agg.items():
        _put(out, f"totals.{key}", value)
    _put(out, "totals.runs", len(report.get("runs") or []))
    return out


# -- human report -----------------------------------------------------------
def _fmt(value: float) -> str:
    if value != value:  # pragma: no cover - NaN never stored
        return "nan"
    if abs(value) >= 1000 or value == int(value):
        return f"{value:,.0f}"
    if abs(value) < 0.01:
        return f"{value:.3e}"
    return f"{value:.4g}"


def render_obs_report(loaded: dict) -> str:
    """Human summary of one artifact: tables plus sparklines where sensible."""
    kind = loaded["kind"]
    doc = loaded["document"]
    lines = [f"{loaded['path']}: {kind}"]
    if kind == "telemetry-log":
        snaps = doc["snapshots"]
        lines.append(
            f"{len(snaps)} snapshot(s), {len(doc['traces'])} retained trace(s)"
        )
        if snaps:
            lines.append("")
            lines.append(_render_snapshot_tables(snaps[-1]))
        if len(snaps) >= 2:
            series = {
                "requests (lifetime)": [
                    s.get("totals", {}).get("requests", 0) for s in snaps
                ],
                "window requests": [
                    s.get("window", {}).get("requests", 0) for s in snaps
                ],
            }
            lines.append("")
            lines.append(ascii_line_plot(
                series, width=60, height=10, logy=False,
                title="traffic over snapshots",
            ))
        if doc["traces"]:
            lines.append("")
            rows = [
                (
                    t.get("op", "?"),
                    t.get("request_id"),
                    t.get("latency_seconds"),
                    len(t.get("spans") or []),
                    t.get("error") or "-",
                )
                for t in doc["traces"]
            ]
            lines.append(render_table(
                ("op", "id", "latency_s", "spans", "error"), rows,
                digits=6, title="retained traces",
            ))
    elif kind == "stats-snapshot":
        lines.append(_render_snapshot_tables(doc))
    elif kind == "run-report":
        lines.append(f"command: {doc.get('command', '?')}")
        rows = sorted(
            (name, value) for name, value in _flatten_run_report(doc).items()
        )
        lines.append(render_table(("metric", "value"), rows, digits=6))
    elif kind == "bench-report":
        runs = doc.get("runs") or []
        lines.append(f"{len(runs)} instrumented run(s), scale {doc.get('scale')}")
        rows = [
            (
                run.get("matrix", "?"),
                run.get("n_vertices"),
                (run.get("totals") or {}).get("launches"),
                (run.get("totals") or {}).get("bytes"),
                run.get("coverage"),
            )
            for run in runs
        ]
        lines.append(render_table(
            ("matrix", "N", "launches", "bytes", "coverage"), rows, digits=4,
        ))
        if len(runs) >= 2:
            lines.append("")
            lines.append(ascii_line_plot(
                {"bytes per run": [
                    (r.get("totals") or {}).get("bytes", 0) for r in runs
                ]},
                width=60, height=10, logy=True, floor=1.0,
                title="traffic per run (log10)",
            ))
    return "\n".join(lines)


def _render_snapshot_tables(snap: dict) -> str:
    lines = []
    uptime = snap.get("uptime_seconds")
    if uptime is not None:
        lines.append(f"uptime: {uptime:.3f}s")
    ops = snap.get("ops") or {}
    if ops:
        rows = []
        for op, stats in sorted(ops.items()):
            latency = stats.get("latency") or {}
            rows.append((
                op, stats.get("count"), stats.get("errors"),
                latency.get("p50"), latency.get("p95"), latency.get("p99"),
            ))
        lines.append(render_table(
            ("op", "count", "errors", "p50_s", "p95_s", "p99_s"),
            rows, digits=6, title="per-op latency",
        ))
    totals = snap.get("totals") or {}
    if totals:
        rows = sorted(
            (k, _fmt(float(v)))
            for k, v in totals.items() if _is_number(v)
        )
        lines.append("")
        lines.append(render_table(("total", "value"), rows))
    sampler = snap.get("sampler") or {}
    if sampler:
        lines.append("")
        lines.append(
            "tail sampler: {} errored + {} slow retained, {} dropped".format(
                sampler.get("retained_errored", 0),
                sampler.get("retained_slow", 0),
                sampler.get("dropped", 0),
            )
        )
    return "\n".join(lines)


# -- diffing ----------------------------------------------------------------
def diff_metrics(a: dict, b: dict, *, threshold: float = 0.25) -> dict:
    """Compare two flattened metric dicts (``a`` = baseline, ``b`` = new).

    Returns ``{"rows": [...], "regressions": [...], "only_a": [...],
    "only_b": [...]}``.  A row is ``(name, a, b, rel_change, direction,
    flagged)`` with ``rel_change = (b - a) / max(|a|, 1e-12)``.  A metric
    is flagged as a regression when its relative change exceeds
    ``threshold`` *in its bad direction* (see :func:`metric_direction`);
    neutral metrics are reported but never flagged.
    """
    if threshold < 0:
        raise ValueError(f"threshold cannot be negative: {threshold}")
    rows = []
    regressions = []
    for name in sorted(set(a) & set(b)):
        va, vb = a[name], b[name]
        rel = (vb - va) / max(abs(va), 1e-12)
        direction = metric_direction(name)
        flagged = False
        if direction == -1 and rel > threshold:
            flagged = True
        elif direction == 1 and rel < -threshold:
            flagged = True
        row = (name, va, vb, rel, direction, flagged)
        rows.append(row)
        if flagged:
            regressions.append(row)
    return {
        "rows": rows,
        "regressions": regressions,
        "only_a": sorted(set(a) - set(b)),
        "only_b": sorted(set(b) - set(a)),
    }


def render_diff(diff: dict, *, verbose: bool = False) -> str:
    """Render a diff result; regressions always shown, the rest on demand."""
    lines = []
    shown = diff["rows"] if verbose else diff["regressions"]
    if shown:
        table_rows = [
            (
                name,
                _fmt(va),
                _fmt(vb),
                f"{100 * rel:+.1f}%",
                {1: "higher-better", -1: "higher-worse", 0: "neutral"}[direction],
                "REGRESSION" if flagged else "",
            )
            for name, va, vb, rel, direction, flagged in shown
        ]
        lines.append(render_table(
            ("metric", "baseline", "new", "change", "direction", ""),
            table_rows,
        ))
    if diff["only_a"]:
        lines.append(f"only in baseline: {', '.join(diff['only_a'][:8])}"
                     + (" ..." if len(diff["only_a"]) > 8 else ""))
    if diff["only_b"]:
        lines.append(f"only in new: {', '.join(diff['only_b'][:8])}"
                     + (" ..." if len(diff["only_b"]) > 8 else ""))
    n_reg = len(diff["regressions"])
    n_all = len(diff["rows"])
    if n_reg:
        lines.append(f"{n_reg} regression(s) across {n_all} compared metric(s)")
    else:
        lines.append(f"no regressions across {n_all} compared metric(s)")
    return "\n".join(lines)
