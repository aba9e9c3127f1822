"""The ``repro serve`` daemon: a fingerprint-keyed result-caching request loop.

A long-lived process that amortizes extraction across repeat traffic.  The
protocol is line-delimited JSON (schema tag ``repro.serve/v1``): each
request line is one JSON object with an ``op`` (``extract``, ``factor``,
``solve``, ``update``, ``ping``, ``stats``, ``shutdown``), an optional
correlation ``id`` echoed back verbatim, a ``matrix`` spec and an optional
``config`` overlay; each response line is one JSON object carrying ``ok``,
the result payload, whether it was ``cached``, and the per-request
``repro.obs/run-report/v2`` report built by
:class:`~repro.serve.session.RequestSession` (its ``serve`` section holds
the request's latency on the daemon clock, per-request launch/byte totals
and whether the tail sampler retained the trace).

Beyond the per-request reports, the daemon keeps lifetime telemetry: every
request is folded into one :class:`~repro.obs.agg.Aggregator` (per-op
latency quantiles, rolling windowed counters, tail-sampled traces), the
``stats`` op returns its ``repro.serve/stats/v2`` snapshot, and — when
configured — a :class:`~repro.obs.expose.TelemetrySchedule` periodically
appends snapshots to a JSONL telemetry log and atomically rewrites a
Prometheus text-exposition file (``repro serve --telemetry-log/--prom-out``;
see ``docs/OBSERVABILITY.md``).

Requests are keyed by content, not identity::

    op : fingerprint_graph(prepare_graph(A)).key : A-digest : cfg=<digest>

The prepared-graph fingerprint (:func:`repro.tune.fingerprint_graph`, v2
dtype-tagged digest) is the primary key, exactly as the issue's cache
contract specifies; the original matrix's own
:func:`~repro.tune.fingerprint.matrix_digest` rides along because two
originals can *prepare* identically while differing where preparation
discards information (the diagonal, signs) — and the tridiagonal bands are
extracted from the original, so serving one original's bands for the other
would be a silent mis-serve.  The config digest is a SHA-256 over the
canonicalized (defaults-overlaid, unknown-keys-rejected) request config.

Cache misses run the real pipeline.  Concurrent *identical* misses are
coalesced leader/follower style — one pipeline run, every follower counts
as a hit.  Concurrent *distinct* cold ``extract`` misses arriving within
the configured batch window are packed through
:func:`repro.batch.extract_linear_forest_batch`, so N cold graphs cost one
set of kernel launches; the batch splitter's bit-identity guarantee is what
makes this safe to do silently.  Hits replay the memoized payload with zero
kernel launches.  Graceful shutdown drains in-flight requests, then
persists the result cache atomically (temp file + ``os.replace``).
Inputs the daemon cannot answer exactly — an inline dtype other than
float32/float64, a non-finite entry, a coverage that overflows to nan or
inf — are request errors, never cached.

The ``update`` op patches a cached extraction in place when the client's
graph evolves: the request carries the *pre-edit* matrix plus an ``edits``
list (the :meth:`repro.delta.EditBatch.from_dicts` format), the daemon
computes the edited matrix's fingerprint and caches the refreshed payload
under the **extract** key of the edited matrix — so a later plain
``extract`` of the edited graph is a hit.  When the pre-edit extraction is
still in the daemon's warm-seed store (a small LRU of recent in-memory
``LinearForestResult`` objects; the JSON result cache alone cannot seed the
delta engine), the refresh runs through :func:`repro.delta.apply_edits` —
bit-identical to a from-scratch run at a fraction of the launches, metered
as ``delta.*`` counters in the per-request report — otherwise it falls back
to a full extraction of the edited matrix (``serve.delta.cold``).  The
response is the extract-shaped payload plus a top-level ``delta`` dict
(``warm``, and the engine's stats when warm); see ``docs/INCREMENTAL.md``.
Updates take the same request path as extracts, so identical concurrent
updates coalesce (a follower's ``delta`` is ``null``, as on any hit), and
every extraction the daemon runs, batch-window members included, seeds the
warm-seed store.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..batch import extract_linear_forest_batch
from ..core import ParallelFactorConfig, coverage, extract_linear_forest, parallel_factor
from ..core.delta import EditBatch, apply_edits, apply_edits_to_matrix
from ..device import Device
from ..errors import ConfigError
from ..graphs import SUITE, build_matrix
from ..obs import Aggregator, MetricsRegistry, TelemetrySchedule
from ..solvers import (
    AlgTriBlockPrecond,
    AlgTriScalPrecond,
    IdentityPrecond,
    JacobiPrecond,
    TriScalPrecond,
    bicgstab,
)
from ..sparse import CSRMatrix, prepare_graph, read_matrix_market
from ..tune import fingerprint_graph, matrix_digest
from .result_cache import ResultCache
from .session import RequestSession

__all__ = [
    "PROTOCOL",
    "ReproServer",
    "ServeConfig",
    "canonical_config",
    "config_digest",
    "load_matrix",
    "request_key",
]

#: Schema tag of the request/response protocol.
PROTOCOL = "repro.serve/v1"

_PRECONDITIONERS = {
    "none": IdentityPrecond,
    "jacobi": JacobiPrecond,
    "triscal": TriScalPrecond,
    "algtriscal": AlgTriScalPrecond,
    "algtriblock": AlgTriBlockPrecond,
}

#: Canonical config keys per op, with the CLI's defaults.  The canonical
#: form (defaults overlaid with the request's overrides) is what gets
#: digested into the cache key, so two requests spelling the same effective
#: config differently share one entry.
_CONFIG_DEFAULTS: dict = {
    "extract": {
        "iterations": 5, "m": 5, "k_m": 0, "p": 0.5, "seed": 0,
        "merged_scan": True,
    },
    "factor": {
        "n": 2, "iterations": 5, "m": 5, "k_m": 0, "p": 0.5, "seed": 0,
    },
    "solve": {
        "preconditioner": "algtriscal", "tol": 1e-8, "max_iterations": 2000,
        "rhs": None,
        "iterations": 5, "m": 5, "k_m": 0, "p": 0.5, "seed": 0,
    },
}
# an update refreshes an extract entry, so it shares extract's canonical
# config (and therefore its config digest — the edited matrix's extract key
# must match what a plain extract request would compute)
_CONFIG_DEFAULTS["update"] = _CONFIG_DEFAULTS["extract"]


# -- request canonicalization ----------------------------------------------
def canonical_config(op: str, overrides) -> dict:
    """Overlay request ``config`` onto the op's defaults, strictly.

    Unknown keys are a :class:`~repro.errors.ConfigError` naming the valid
    set — a typo must fail loudly, not silently key a fresh cache entry.
    Values are coerced to the default's type so ``5`` and ``5.0`` digest
    identically where the semantics are identical.
    """
    defaults = _CONFIG_DEFAULTS.get(op)
    if defaults is None:
        raise ConfigError(f"op {op!r} takes no config")
    if overrides is None:
        overrides = {}
    if not isinstance(overrides, dict):
        raise ConfigError(
            f"request config must be a JSON object, got {type(overrides).__name__}"
        )
    unknown = sorted(set(overrides) - set(defaults))
    if unknown:
        raise ConfigError(
            f"request config for op {op!r} has unknown keys {unknown} "
            f"(valid: {sorted(defaults)})"
        )
    cfg = dict(defaults)
    for key, value in overrides.items():
        default = defaults[key]
        try:
            if isinstance(default, bool):
                if not isinstance(value, bool):
                    raise TypeError
            elif isinstance(default, int):
                value = int(value)
            elif isinstance(default, float):
                value = float(value)
            elif isinstance(default, str):
                value = str(value)
        except (TypeError, ValueError):
            raise ConfigError(
                f"request config {key}={value!r} for op {op!r} is not a valid "
                f"{type(default).__name__}"
            ) from None
        cfg[key] = value
    if op == "solve":
        spec = cfg["preconditioner"]
        if spec not in _PRECONDITIONERS:
            raise ConfigError(
                f"unknown preconditioner {spec!r} (valid: {sorted(_PRECONDITIONERS)})"
            )
        rhs = cfg["rhs"]
        if rhs is not None:
            if not isinstance(rhs, list):
                raise ConfigError("request config 'rhs' must be a JSON array of numbers")
            cfg["rhs"] = [float(v) for v in rhs]
    return cfg


def config_digest(cfg: dict) -> str:
    """Short digest of a canonical config (SHA-256 of its compact JSON)."""
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def request_key(op: str, fingerprint, original_digest: str, cfg: dict) -> str:
    """The result-cache key: op + prepared fingerprint + input digest + config."""
    return f"{op}:{fingerprint.key}:in={original_digest}:cfg={config_digest(cfg)}"


def load_matrix(spec) -> CSRMatrix:
    """Materialize a request's ``matrix`` spec.

    Three kinds: ``{"kind": "file", "path": ...}`` reads a Matrix Market
    file; ``{"kind": "suite", "name": ..., "scale": ...}`` builds a bundled
    suite matrix; ``{"kind": "csr", "indptr": ..., "indices": ...,
    "data": ..., "n": ..., "dtype": ...}`` carries the matrix inline.  An
    inline dtype other than float32/float64, or a non-finite entry in a
    file or inline matrix, is a :class:`~repro.errors.ConfigError` naming it.
    """
    if not isinstance(spec, dict):
        raise ConfigError("request 'matrix' must be a JSON object with a 'kind'")
    kind = spec.get("kind")
    if kind == "file":
        path = spec.get("path")
        if not path:
            raise ConfigError("matrix kind 'file' requires a 'path'")
        try:
            a = read_matrix_market(path)
        except OSError as exc:
            raise ConfigError(f"could not read matrix file {path}: {exc}") from exc
    elif kind == "suite":
        name = spec.get("name")
        if name not in SUITE:
            raise ConfigError(
                f"unknown suite matrix {name!r} (valid: {sorted(SUITE)})"
            )
        return build_matrix(name, scale=float(spec.get("scale", 1.0)))
    elif kind == "csr":
        try:
            n = int(spec["n"])
            dtype = np.dtype(spec.get("dtype", "float64"))
            if dtype not in (np.float32, np.float64):
                raise ConfigError(f"inline dtype {dtype.name!r} is not float32/float64")
            a = CSRMatrix(
                indptr=np.asarray(spec["indptr"], dtype=np.int64),
                indices=np.asarray(spec["indices"], dtype=np.int64),
                data=np.asarray(spec["data"], dtype=dtype),
                shape=(n, n),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed inline csr matrix: {exc}") from exc
    else:
        raise ConfigError(f"unknown matrix kind {kind!r} (valid: file, suite, csr)")
    finite = np.isfinite(a.data)
    if not finite.all():
        k = int(np.argmin(finite))
        row = int(np.searchsorted(a.indptr, k, side="right")) - 1
        raise ConfigError(
            f"matrix entry at row {row}, column {int(a.indices[k])} is "
            f"{a.data[k]}; weights must be finite"
        )
    return a


# -- result payloads -------------------------------------------------------
def _extract_payload(result) -> dict:
    """The memoized body of an ``extract`` response (JSON-safe, lossless).

    Python floats round-trip float32 and float64 values exactly through
    JSON, so replaying this payload is bit-identical to the cold run.
    """
    tri = result.tridiagonal
    return {
        "op": "extract",
        "coverage": float(result.coverage),
        "n_paths": int(result.paths.n_paths),
        "n_cycles": int(result.broken.n_cycles),
        "perm": [int(v) for v in result.perm],
        "path_id": [int(v) for v in result.paths.path_id],
        "position": [int(v) for v in result.paths.position],
        "bands": {
            "dl": [float(v) for v in tri.dl],
            "d": [float(v) for v in tri.d],
            "du": [float(v) for v in tri.du],
        },
        "value_dtype": str(tri.d.dtype),
    }


def _factor_payload(a: CSRMatrix, res) -> dict:
    return {
        "op": "factor",
        "coverage": float(coverage(a, res.factor)),
        "edges": int(res.factor.edge_count),
        "iterations": int(res.iterations),
        "m_max": int(res.m_max) if res.m_max is not None else None,
        "converged": bool(res.converged),
        "neighbors": [[int(v) for v in row] for row in res.factor.neighbors],
    }


def _config_from(cfg: dict, *, n: int = 2) -> ParallelFactorConfig:
    return ParallelFactorConfig(
        n=n, max_iterations=cfg["iterations"], m=cfg["m"], k_m=cfg["k_m"],
        p=cfg["p"], seed=cfg["seed"],
    )


# -- server configuration --------------------------------------------------
@dataclass
class ServeConfig:
    """Knobs of one :class:`ReproServer`.

    ``batch_window`` is the seconds a cold ``extract`` miss waits for other
    cold misses to share its kernel launches; 0 disables window batching.
    ``cache_max_bytes`` is the result cache's LRU byte budget (``None``
    unbounded).  ``result_cache_path`` persists the cache on shutdown and
    warm-loads it on boot.  ``max_workers`` bounds concurrent request
    threads in :meth:`ReproServer.serve_forever`.

    ``warm_results`` bounds the warm-seed store: the number of recent
    in-memory extraction results kept around so an ``update`` request can
    run the delta engine instead of a full re-extraction (0 disables warm
    updates; every update then re-runs from scratch).

    Telemetry knobs: ``telemetry_log`` appends periodic stats-v2 snapshots
    and retained traces as JSONL; ``prom_out`` keeps a Prometheus text
    exposition file rewritten atomically; ``telemetry_interval`` is the
    seconds between periodic emissions; ``slow_trace_fraction`` is the
    successful-request fraction the tail sampler retains (errors are always
    retained) and ``trace_capacity`` bounds the in-memory retained ring;
    ``window_seconds`` is the rolling-counter window width.
    """

    cache_max_bytes: int | None = 64 * 1024 * 1024
    batch_window: float = 0.0
    result_cache_path: "str | Path | None" = None
    compaction: object = None
    max_workers: int = 4
    warm_results: int = 8
    telemetry_log: "str | Path | None" = None
    prom_out: "str | Path | None" = None
    telemetry_interval: float = 10.0
    slow_trace_fraction: float = 0.05
    trace_capacity: int = 32
    window_seconds: float = 60.0

    def __post_init__(self):
        if self.batch_window < 0:
            raise ConfigError(f"batch window cannot be negative: {self.batch_window}")
        if self.max_workers < 1:
            raise ConfigError(f"max_workers must be >= 1, got {self.max_workers}")
        if self.warm_results < 0:
            raise ConfigError(
                f"warm_results cannot be negative: {self.warm_results}"
            )
        if self.telemetry_interval <= 0:
            raise ConfigError(
                f"telemetry interval must be positive, got {self.telemetry_interval}"
            )
        if not 0.0 <= self.slow_trace_fraction <= 1.0:
            raise ConfigError(
                f"slow trace fraction must be in [0, 1], got "
                f"{self.slow_trace_fraction}"
            )
        if self.trace_capacity < 0:
            raise ConfigError(
                f"trace capacity cannot be negative: {self.trace_capacity}"
            )
        if self.window_seconds <= 0:
            raise ConfigError(
                f"window seconds must be positive, got {self.window_seconds}"
            )


class _Waiter:
    """One in-flight cold run; followers block on ``event``."""

    __slots__ = ("event", "payload", "error")

    def __init__(self):
        self.event = threading.Event()
        self.payload = None
        self.error = None


@dataclass
class _BatchItem:
    """One cold extract miss parked in the batch window."""

    original: CSRMatrix
    prepared: CSRMatrix
    cfg: dict
    cfg_digest: str
    event: threading.Event = field(default_factory=threading.Event)
    payload: dict | None = None
    error: BaseException | None = None
    batch_size: int = 1


class ReproServer:
    """The daemon: request handling, caching, coalescing, shutdown.

    Usable purely in-process (``handle_request(dict) -> dict``, what the
    tests drive) or as a stream daemon (:meth:`serve_forever` over
    line-delimited JSON, what ``repro serve`` runs).
    """

    def __init__(
        self, config: ServeConfig | None = None, *, device=None, clock=None
    ):
        self.config = config or ServeConfig()
        self.device = device
        self.metrics = MetricsRegistry()
        # daemon-lifetime aggregation: every request is folded in, and the
        # injectable clock makes latencies (hence quantiles and sampling
        # decisions) deterministic under test
        self.agg = Aggregator(
            clock=clock,
            window_seconds=self.config.window_seconds,
            slow_trace_fraction=self.config.slow_trace_fraction,
            trace_capacity=self.config.trace_capacity,
        )
        self.telemetry = TelemetrySchedule(
            self.stats,
            self.agg,
            prom_path=self.config.prom_out,
            telemetry_path=self.config.telemetry_log,
            interval=self.config.telemetry_interval,
            clock=clock,
        )
        path = self.config.result_cache_path
        if path is not None:
            self.cache = ResultCache.load_or_empty(
                path, max_bytes=self.config.cache_max_bytes
            )
        else:
            self.cache = ResultCache(max_bytes=self.config.cache_max_bytes)
        self._lock = threading.Lock()  # cache + inflight table
        self._inflight: dict = {}  # key -> _Waiter
        self._drain = threading.Condition()
        self._active = 0
        self._closed = False
        self._persisted = False
        self._batch_lock = threading.Lock()
        self._batch_pending: list = []
        # warm-seed store for the update op: digest-of-(matrix, config) ->
        # (matrix, LinearForestResult).  The JSON result cache only holds
        # payloads, which cannot seed the delta engine; this small LRU keeps
        # the most recent full results in memory so updates run warm.
        self._warm: OrderedDict = OrderedDict()

    # -- protocol entry points ---------------------------------------------
    def handle_line(self, line: str) -> str:
        """One protocol round-trip: request line in, response line out."""
        try:
            request = json.loads(line)
        except json.JSONDecodeError as exc:
            response = _error_response(
                None, ConfigError(f"request line is not valid JSON: {exc}")
            )
            return json.dumps(response)
        return json.dumps(self.handle_request(request))

    def handle_request(self, request) -> dict:
        """Serve one request dict; never raises on request errors."""
        if not isinstance(request, dict):
            return _error_response(
                None, ConfigError("request must be a JSON object")
            )
        request_id = request.get("id")
        op = request.get("op")
        if op == "shutdown":
            self.shutdown()
            return {"id": request_id, "ok": True, "op": "shutdown", "protocol": PROTOCOL}
        with self._drain:
            if self._closed:
                return _error_response(
                    request_id,
                    ConfigError("server is shutting down; request rejected"),
                    op=op,
                )
            self._active += 1
        try:
            return self._dispatch(request_id, op, request)
        finally:
            with self._drain:
                self._active -= 1
                self._drain.notify_all()

    def _dispatch(self, request_id, op, request) -> dict:
        self.metrics.counter("serve.requests").inc()
        t0 = self.agg.clock()
        if op == "ping":
            response = {"id": request_id, "ok": True, "op": "ping", "protocol": PROTOCOL}
            self._record_simple("ping", t0, request_id)
            return response
        if op == "stats":
            # the snapshot is taken before this request is folded in, so a
            # stats response never counts itself
            response = {
                "id": request_id, "ok": True, "op": "stats",
                "protocol": PROTOCOL, "stats": self.stats(),
            }
            self._record_simple("stats", t0, request_id)
            return response
        if op not in ("extract", "factor", "solve", "update"):
            exc = ConfigError(
                f"unknown op {op!r} (valid: extract, factor, solve, update, "
                "ping, stats, shutdown)"
            )
            self._record_simple(
                op if isinstance(op, str) and op else "unknown",
                t0, request_id, error=f"ConfigError: {exc}",
            )
            return _error_response(request_id, exc)
        session = RequestSession(op, request_id=request_id)
        try:
            with session.ambient():
                cfg = canonical_config(op, request.get("config"))
                edits = (
                    EditBatch.from_dicts(request.get("edits"))
                    if op == "update" else None
                )
                with session.span("serve-load-matrix"):
                    a = load_matrix(request.get("matrix"))
                with session.span("serve-fingerprint"):
                    # an update is keyed as the extract of the edited matrix
                    keyed = a if edits is None else apply_edits_to_matrix(a, edits)
                    prepared = prepare_graph(keyed)
                    key = request_key(
                        "extract" if op == "update" else op,
                        fingerprint_graph(prepared), matrix_digest(keyed), cfg,
                    )
                session.annotate(
                    key=key, n_vertices=a.n_rows, nnz=a.nnz,
                    n_edits=None if edits is None else len(edits),
                )
                payload, cached, delta = self._resolve(
                    op, key, keyed, prepared, cfg, session,
                    update=None if edits is None else (a, edits),
                )
            report = session.finish()
            report["serve"] = self._record_session(session, t0)
            return {
                "id": request_id, "ok": True, "op": op, "protocol": PROTOCOL,
                "key": key, "cached": cached, "result": payload,
                **({"delta": delta} if op == "update" else {}), "report": report,
            }
        except Exception as exc:  # a daemon survives bad requests
            self.metrics.counter("serve.errors").inc()
            error_text = f"{type(exc).__name__}: {exc}"
            report = session.finish(error=error_text)
            report["serve"] = self._record_session(session, t0, error=error_text)
            response = _error_response(request_id, exc, op=op)
            response["report"] = report
            return response

    # -- warm-seed store ---------------------------------------------------
    def _warm_key(self, a, cfg) -> str:
        return f"{matrix_digest(a)}:cfg={config_digest(cfg)}"

    def _seed_warm(self, a, cfg, result) -> dict:
        """Keep ``result``, the extraction of ``a``, for later updates and
        return its payload; every extraction the daemon runs passes here."""
        if self.config.warm_results > 0:
            wkey = self._warm_key(a, cfg)
            with self._lock:
                self._warm[wkey] = result
                self._warm.move_to_end(wkey)
                while len(self._warm) > self.config.warm_results:
                    self._warm.popitem(last=False)
        return _extract_payload(result)

    # -- aggregate feeding -------------------------------------------------
    def _record_simple(self, op, t0, request_id, *, error=None) -> None:
        """Fold a pipeline-less request (ping/stats/unknown) and tick."""
        self.agg.record_request(
            op, latency=self.agg.clock() - t0, error=error, request_id=request_id
        )
        self.telemetry.tick()

    def _record_session(self, session, t0, *, error=None) -> dict:
        """Fold one pipeline request into the aggregator.

        Returns the report's ``serve`` section.  The latency recorded here
        is the same value embedded in the report, so per-op quantiles in
        the stats snapshot are recomputable from the raw per-request
        reports.  Launches and bytes come off the session tracer's kernel
        spans (zero for hits, followers and non-leading batch members, so
        aggregate totals never double-count).
        """
        latency = self.agg.clock() - t0
        launches, nbytes = session.kernel_totals()
        with self._lock:
            evictions = self.cache.stats()["evictions"]
        retained = self.agg.record_request(
            session.op,
            latency=latency,
            error=error,
            cached=session.cache_hit,
            coalesced=session.coalesced,
            batch_size=session.batch_size,
            launches=launches,
            bytes=nbytes,
            evictions_total=evictions,
            trace=session.spans_as_dicts(),
            request_id=session.request_id,
        )
        self.telemetry.tick()
        return {
            "latency_seconds": latency,
            "launches": launches,
            "bytes": nbytes,
            "trace_retained": retained,
        }

    # -- cache + coalescing ------------------------------------------------
    def _resolve(self, op, key, a, prepared, cfg, session, update=None):
        """The cache contract: hit replays, miss runs, identical misses share.

        An update passes the edited matrix as ``a`` and ``update=(pre-edit
        matrix, edits)``.  Returns ``(payload, cached, delta)``; ``delta`` is
        ``None`` except on an update's own miss.
        """
        with self._lock:
            payload = self.cache.get(key)
            if payload is not None:
                self.metrics.counter("serve.cache.hit").inc()
                session.record_cache(hit=True)
                return payload, True, None
            waiter = self._inflight.get(key)
            if waiter is None:
                waiter = _Waiter()
                self._inflight[key] = waiter
                leader = True
            else:
                leader = False
        if not leader:
            # an identical request is already running the pipeline: wait for
            # its result instead of launching a second run
            waiter.event.wait()
            if waiter.error is not None:
                raise waiter.error
            self.metrics.counter("serve.cache.hit").inc()
            self.metrics.counter("serve.coalesced").inc()
            session.record_cache(hit=True, coalesced=True)
            return waiter.payload, True, None
        self.metrics.counter("serve.cache.miss").inc()
        session.record_cache(hit=False)
        delta = None
        try:
            with session.span("serve-pipeline"):
                batch_size = 1
                if update is not None:
                    payload, delta = self._run_update(*update, a, prepared, cfg, session)
                elif op == "extract" and self.config.batch_window > 0:
                    payload, batch_size = self._batched_extract(a, prepared, cfg)
                else:
                    payload = self._run_solo(op, a, prepared, cfg)
            if op == "extract":
                session.record_batch(batch_size)
                self.metrics.histogram("serve.batch.size").observe(batch_size)
            # finite weights can still overflow the coverage sums
            coverage = payload.get("coverage")
            if coverage is not None and not np.isfinite(coverage):
                raise ConfigError(f"{op} coverage is {coverage}: the weights overflow")
        except BaseException as exc:
            with self._lock:
                self._inflight.pop(key, None)
            waiter.error = exc
            waiter.event.set()
            raise
        with self._lock:
            stored = self.cache.put(key, payload)
            self._inflight.pop(key, None)
        waiter.payload = payload
        waiter.event.set()
        session.annotate(stored=stored)
        return payload, False, delta

    def _run_device(self) -> Device:
        """The metering device of one cold pipeline run.

        Tests inject a shared recording device at construction; the real
        daemon gets a fresh per-run one instead — its launches and bytes
        land on the session tracer's kernel spans (that's where per-request
        attribution reads them) and the device itself is discarded with the
        request, so a long-lived daemon never accumulates launch records.
        """
        return self.device if self.device is not None else Device("serve-request")

    def _run_solo(self, op, a, prepared, cfg):
        if op == "extract":
            return self._seed_warm(a, cfg, extract_linear_forest(
                a, _config_from(cfg), device=self._run_device(),
                merged_scan=cfg["merged_scan"],
                compaction=self.config.compaction, prepared_graph=prepared,
            ))
        if op == "factor":
            res = parallel_factor(
                prepared, _config_from(cfg, n=cfg["n"]), device=self._run_device(),
                compaction=self.config.compaction,
            )
            return _factor_payload(a, res)
        return self._run_solve(a, cfg)

    def _run_solve(self, a, cfg):
        n = a.n_rows
        if cfg["rhs"] is not None:
            b = np.asarray(cfg["rhs"], dtype=np.float64)
            if b.shape != (n,):
                raise ConfigError(
                    f"rhs has {b.size} entries but the matrix has {n} rows"
                )
            x_t = None
        else:
            # the paper's test problem: x_t[i] = sin(16*pi*i/N)
            x_t = np.sin(16.0 * np.pi * np.arange(n) / n)
            b = a.matvec(x_t)
        precond = _PRECONDITIONERS[cfg["preconditioner"]](a)
        res = bicgstab(
            a, b, preconditioner=precond, tol=cfg["tol"],
            max_iterations=cfg["max_iterations"], true_solution=x_t,
        )
        h = res.history
        return {
            "op": "solve",
            "x": [float(v) for v in res.x],
            "converged": bool(res.converged),
            "iterations": int(h.n_iterations),
            "final_residual": float(h.final_residual),
            "preconditioner": precond.name,
            "preconditioner_coverage": float(precond.coverage),
        }

    def _run_update(self, before, edits, a, prepared, cfg, session):
        """An update miss: ``apply_edits`` on the warm extraction of
        ``before`` if the store holds one, else a cold extract of the edited
        ``a``.  Returns the payload and the response's ``delta``."""
        wkey = self._warm_key(before, cfg)
        with self._lock:
            warm = self._warm.get(wkey)
            if warm is not None:
                self._warm.move_to_end(wkey)
        if warm is None:
            self.metrics.counter("serve.delta.cold").inc()
            session.annotate(delta="cold")
            payload = self._run_solo("extract", a, prepared, cfg)
            return payload, {"warm": False, "stats": None}
        self.metrics.counter("serve.delta.warm").inc()
        session.annotate(delta="warm")
        updated = apply_edits(
            warm, edits, before, _config_from(cfg), device=self._run_device(),
            compaction=self.config.compaction,
        )
        payload = self._seed_warm(a, cfg, updated.result)
        return payload, {"warm": True, "stats": updated.stats.to_dict()}

    # -- window batching of cold extract misses ----------------------------
    def _batched_extract(self, a, prepared, cfg):
        """Park a cold miss in the batch window; one leader runs the pack.

        The first miss to arrive becomes the window leader: it sleeps for
        ``batch_window`` seconds, then swaps out everything that parked in
        the meantime and runs it as one block-diagonal batch.  Members are
        grouped by (config digest, value dtype) because the batch engine
        requires one config and one dtype per pack; each group > 1 goes
        through :func:`~repro.batch.extract_linear_forest_batch`, singleton
        groups run solo so their launch accounting matches a plain request.
        """
        item = _BatchItem(
            original=a, prepared=prepared, cfg=cfg, cfg_digest=config_digest(cfg)
        )
        with self._batch_lock:
            self._batch_pending.append(item)
            leader = len(self._batch_pending) == 1
        if leader:
            time.sleep(self.config.batch_window)
            with self._batch_lock:
                batch, self._batch_pending = self._batch_pending, []
            self._run_extract_batch(batch)
        item.event.wait()
        if item.error is not None:
            raise item.error
        return item.payload, item.batch_size

    def _run_extract_batch(self, batch) -> None:
        groups: dict = {}
        for item in batch:
            groups.setdefault(
                (item.cfg_digest, item.original.dtype.name), []
            ).append(item)
        for group in groups.values():
            try:
                self._execute_extract_group(group)
            except BaseException as exc:
                for item in group:
                    if not item.event.is_set():
                        item.error = exc
                        item.event.set()

    def _execute_extract_group(self, group) -> None:
        cfg = group[0].cfg
        if len(group) == 1:
            payloads = [
                self._run_solo("extract", group[0].original, group[0].prepared, cfg)
            ]
        else:
            result = extract_linear_forest_batch(
                [item.original for item in group], _config_from(cfg),
                device=self._run_device(), merged_scan=cfg["merged_scan"],
                compaction=self.config.compaction,
            )
            self.metrics.counter("serve.batched_runs").inc()
            # members are bit-identical to solo runs, so they seed alike
            payloads = [
                self._seed_warm(item.original, cfg, member)
                for item, member in zip(group, result.members)
            ]
        for item, payload in zip(group, payloads):
            item.payload = payload
            item.batch_size = len(group)
            item.event.set()

    # -- lifecycle ---------------------------------------------------------
    def stats(self) -> dict:
        """The ``repro.serve/stats/v2`` document: aggregate + v1 fields.

        Strict superset of the v1 payload — ``protocol``, ``cache`` and
        ``metrics`` keep their v1 shapes (``cache`` additionally carries a
        derived ``hit_ratio``); v2 adds ``schema``, ``uptime_seconds``,
        per-op counts with latency quantiles (``ops``), the rolling
        ``window``, lifetime ``totals`` and the tail ``sampler``.
        """
        with self._lock:
            cache_stats = self.cache.stats()
        snap = self.agg.snapshot(cache_stats=cache_stats)
        snap["protocol"] = PROTOCOL
        snap["metrics"] = self.metrics.as_dict()
        return snap

    def shutdown(self) -> None:
        """Refuse new requests, drain in-flight ones, persist the cache.

        The telemetry schedule gets a final forced emission after the cache
        persists, so the last snapshot on disk reflects the daemon's whole
        life.
        """
        with self._drain:
            self._closed = True
            while self._active > 0:
                self._drain.wait()
            if self._persisted:
                return
            self._persisted = True
        path = self.config.result_cache_path
        if path is not None:
            with self._lock:
                self.cache.save(path)
        self.telemetry.close()

    def serve_forever(self, in_stream, out_stream) -> None:
        """Run the line protocol until ``shutdown`` or end of input.

        Each request line is handled on its own thread (bounded by
        ``max_workers``) so slow cold misses don't serialize the stream —
        and so concurrent misses can actually meet inside the batch window.
        Responses carry the request's ``id`` for correlation because
        completion order is not arrival order.
        """
        out_lock = threading.Lock()
        slots = threading.Semaphore(self.config.max_workers)
        threads: list = []

        def emit(response: dict) -> None:
            with out_lock:
                out_stream.write(json.dumps(response) + "\n")
                out_stream.flush()

        def worker(request) -> None:
            try:
                emit(self.handle_request(request))
            finally:
                slots.release()

        shutdown_request = None
        for line in in_stream:
            line = line.strip()
            if not line:
                continue
            try:
                request = json.loads(line)
            except json.JSONDecodeError as exc:
                emit(_error_response(
                    None, ConfigError(f"request line is not valid JSON: {exc}")
                ))
                continue
            if isinstance(request, dict) and request.get("op") == "shutdown":
                shutdown_request = request
                break
            slots.acquire()
            thread = threading.Thread(target=worker, args=(request,), daemon=True)
            thread.start()
            threads.append(thread)
        for thread in threads:
            thread.join()
        self.shutdown()
        if shutdown_request is not None:
            emit({
                "id": shutdown_request.get("id"), "ok": True,
                "op": "shutdown", "protocol": PROTOCOL,
            })


def _error_response(request_id, exc, *, op=None) -> dict:
    response = {
        "id": request_id,
        "ok": False,
        "protocol": PROTOCOL,
        "error": {"type": type(exc).__name__, "message": str(exc)},
    }
    if op is not None:
        response["op"] = op
    return response
