"""The ``repro serve`` daemon: a content-keyed result-caching request loop.

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

    op : in=<A-digest> : cfg=<digest>

The input digest is :func:`repro.sparse.matrix_digest`, a dtype-tagged
SHA-256 over the request matrix's CSR buffers.  It decides every cached
field: the prepared graph ``|A| - diag(|A|)`` (symmetrized when ``A`` is
not) is a function of ``A``, and the tridiagonal bands are cut from ``A``
itself, so a key is computed without preparing anything and a miss
prepares inside the engine it runs.  The config digest is a SHA-256 over
the canonicalized (defaults-overlaid, unknown-keys-rejected) request
config.  The result cache, the in-flight table and the warm-seed store
share this one key.

Cache misses run the real pipeline.  Concurrent *identical* misses are
coalesced leader/follower style — one pipeline run, every follower counts
as a hit.  Concurrent *distinct* cold ``extract`` misses arriving within
the configured batch window are packed through
:func:`repro.batch.extract_linear_forest_batch`, so N cold graphs cost one
set of kernel launches; the batch splitter's bit-identity guarantee is what
makes this safe to do silently.  Hits replay the memoized payload with zero
kernel launches.  The cache holds each payload as its canonical JSON text:
a miss encodes it once, and every response line (hit, miss, follower)
writes that text in as its ``result``; :meth:`ReproServer.handle_request`
decodes a fresh dict instead.  Graceful shutdown drains in-flight requests,
then persists the result cache atomically (temp file + ``os.replace``).
Inputs the daemon cannot answer exactly — an inline dtype other than
float32/float64, a non-finite entry, a coverage that overflows to nan or
inf — are request errors, never cached.

The ``update`` op patches a cached extraction in place when the client's
graph evolves: the request carries the *pre-edit* matrix plus an ``edits``
list (the :meth:`repro.delta.EditBatch.from_dicts` format), and the daemon
keys it as the **extract** of the edited matrix and caches the refreshed
payload there — so a later plain ``extract`` of the edited graph is a hit.
When the pre-edit extraction is still in the daemon's warm-seed store (a
small LRU of recent in-memory ``LinearForestResult`` objects; the JSON
result cache alone cannot seed the delta engine), the refresh runs through
:func:`repro.delta.apply_edits` — bit-identical to a from-scratch run at a
fraction of the launches, metered as ``delta.*`` counters in the
per-request report — otherwise it falls back to a full extraction of the
edited matrix (``serve.delta.cold``).  Either way the edited matrix is
prepared once, inside the engine that runs.  The
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
import math
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .._validation import _is_flag, _is_integral, _is_real, check_square
from ..batch import extract_linear_forest_batch
from ..core import ParallelFactorConfig, coverage, extract_linear_forest, parallel_factor
from ..core.delta import EditBatch, apply_edits, apply_edits_to_matrix
from ..device import Device
from ..errors import ConfigError, ShapeError
from ..graphs import SUITE, build_matrix
from ..obs import Aggregator, MetricsRegistry, TelemetrySchedule
from ..solvers import bicgstab
from ..solvers.preconditioners import _PRECONDITIONERS, _paper_solution
from ..sparse import CSRMatrix, matrix_digest, prepare_graph, read_matrix_market
from .result_cache import ResultCache, canonical_json
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
    Values are refused, never converted, when they are not of the default's
    kind: an integer field takes an integral, non-boolean number (``5.0``
    keys as ``5``), a float field a finite, non-boolean number, a boolean
    field a boolean and a string field a string; every ``rhs`` entry is a
    finite number.  Values are also refused when out of range: the factor
    fields must build a :class:`~repro.core.factor.ParallelFactorConfig`,
    and a ``solve`` needs ``max_iterations >= 0`` and ``tol > 0``.  The
    :class:`~repro.errors.ConfigError` names the field and the value.
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
        if isinstance(default, bool):
            ok, what = _is_flag(value), "a boolean"
        elif isinstance(default, int):
            ok, what = _is_integral(value), "an integer"
        elif isinstance(default, float):
            ok, what = _is_finite_real(value), "a finite number"
        elif isinstance(default, str):
            ok, what = isinstance(value, str), "a string"
        else:  # rhs, checked below
            ok, what = True, ""
        if not ok:
            raise ConfigError(
                f"request config {key}={value!r} for op {op!r} is not {what}"
            )
        cfg[key] = value if default is None else type(default)(value)
    try:
        _config_from(cfg, n=cfg.get("n", 2))
    except ShapeError as exc:
        name = str(exc).split()[0]
        key = "iterations" if name == "max_iterations" else name
        raise ConfigError(
            f"request config {key}={cfg[key]!r} for op {op!r} is out of range: {exc}"
        ) from exc
    if op == "solve":
        if cfg["max_iterations"] < 0:
            raise ConfigError(
                f"request config max_iterations={cfg['max_iterations']!r} for op "
                "'solve' is out of range: it must be >= 0"
            )
        if cfg["tol"] <= 0:
            raise ConfigError(
                f"request config tol={cfg['tol']!r} for op 'solve' is out of "
                "range: it must be > 0"
            )
        spec = cfg["preconditioner"]
        if spec not in _PRECONDITIONERS:
            raise ConfigError(
                f"unknown preconditioner {spec!r} (valid: {sorted(_PRECONDITIONERS)})"
            )
        rhs = cfg["rhs"]
        if rhs is not None:
            if not isinstance(rhs, list):
                raise ConfigError("request config 'rhs' must be a JSON array of numbers")
            for i, v in enumerate(rhs):
                if not _is_finite_real(v):
                    raise ConfigError(
                        f"request config rhs[{i}]={v!r} is not a finite number"
                    )
            cfg["rhs"] = [float(v) for v in rhs]
    return cfg


def config_digest(cfg: dict) -> str:
    """Short digest of a canonical config (SHA-256 of its compact JSON)."""
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def request_key(op: str, a: CSRMatrix, cfg: dict) -> str:
    """The result-cache key: op + input digest + config digest."""
    return f"{op}:in={matrix_digest(a)}:cfg={config_digest(cfg)}"


def _is_finite_real(x) -> bool:
    """A finite, non-boolean number that a float holds."""
    try:
        return _is_real(x) and math.isfinite(x)
    except OverflowError:  # an integer too large for a float
        return False


def _inline_array(spec: dict, key: str, dtype) -> np.ndarray:
    """An inline CSR array, checked as the array NumPy infers from the list.

    Booleans, strings and mixed lists are refused, never converted, and an
    index array (integer ``dtype``) must hold integral values.  NumPy makes
    the ``true`` of ``[1.0, true]`` a number, so that list passes.
    """
    arr = np.asarray(spec[key])
    if arr.dtype.kind not in "iuf":
        what = {"b": "booleans", "U": "strings"}.get(arr.dtype.kind, f"{arr.dtype} values")
        raise ConfigError(
            f"inline csr {key} holds {what}, not numbers: {arr.ravel()[:3].tolist()!r}"
        )
    if arr.dtype.kind == "f" and np.dtype(dtype).kind == "i":
        bad = ~((np.abs(arr) < 2.0**63) & (arr == np.trunc(arr)))
        if bool(bad.any()):
            k = int(np.flatnonzero(bad.ravel())[0])
            raise ConfigError(
                f"inline csr {key}[{k}]={arr.ravel()[k].item()!r} is not an integer"
            )
    return np.asarray(arr, dtype=dtype)


def load_matrix(spec) -> CSRMatrix:
    """Materialize a request's ``matrix`` spec.

    Three kinds: ``{"kind": "file", "path": ...}`` reads a Matrix Market
    file; ``{"kind": "suite", "name": ..., "scale": ...}`` builds a bundled
    suite matrix; ``{"kind": "csr", "indptr": ..., "indices": ...,
    "data": ..., "n": ..., "dtype": ...}`` carries the matrix inline.  An
    inline dtype other than float32/float64, a non-finite entry in a file or
    inline matrix, a ``path`` that is not a non-empty string, a ``name``
    that names no suite matrix, a ``scale`` that is not a finite number > 0,
    an ``n`` that is not an integer, or an inline array that is not numbers
    (:func:`_inline_array`) is a :class:`~repro.errors.ConfigError` naming
    it.  A non-square file matrix is a :class:`~repro.errors.ShapeError`:
    the request key digests the row count but not the column count.
    """
    if not isinstance(spec, dict):
        raise ConfigError("request 'matrix' must be a JSON object with a 'kind'")
    kind = spec.get("kind")
    if kind == "file":
        path = spec.get("path")
        if not isinstance(path, str) or not path:
            raise ConfigError(f"matrix file path={path!r} is not a non-empty string")
        try:
            a = read_matrix_market(path)
        except OSError as exc:
            raise ConfigError(f"could not read matrix file {path}: {exc}") from exc
        check_square(a.shape)
    elif kind == "suite":
        name = spec.get("name")
        if not isinstance(name, str) or name not in SUITE:
            raise ConfigError(
                f"unknown suite matrix name={name!r} (valid: {sorted(SUITE)})"
            )
        scale = spec.get("scale", 1.0)
        if not (_is_finite_real(scale) and scale > 0):
            raise ConfigError(f"suite matrix scale={scale!r} is not a finite number > 0")
        return build_matrix(name, scale=float(scale))
    elif kind == "csr":
        try:
            n = spec["n"]
            if not _is_integral(n):
                raise ConfigError(f"inline csr n={n!r} is not an integer")
            dtype = np.dtype(spec.get("dtype", "float64"))
            if dtype not in (np.float32, np.float64):
                raise ConfigError(f"inline dtype {dtype.name!r} is not float32/float64")
            a = CSRMatrix(
                indptr=_inline_array(spec, "indptr", np.int64),
                indices=_inline_array(spec, "indices", np.int64),
                data=_inline_array(spec, "data", dtype),
                shape=(int(n), int(n)),
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

    ``tolist`` gives Python ints and floats, and Python floats round-trip
    float32 and float64 values exactly through JSON, so replaying this
    payload is bit-identical to the cold run.
    """
    tri = result.tridiagonal
    return {
        "op": "extract",
        "coverage": float(result.coverage),
        "n_paths": int(result.paths.n_paths),
        "n_cycles": int(result.broken.n_cycles),
        "perm": result.perm.tolist(),
        "path_id": result.paths.path_id.tolist(),
        "position": result.paths.position.tolist(),
        "bands": {"dl": tri.dl.tolist(), "d": tri.d.tolist(), "du": tri.du.tolist()},
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
        "neighbors": res.factor.neighbors.tolist(),
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
    retained).  The sampler keeps at most 32 traces, and the rolling
    counters span 60 s.
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


class _Waiter:
    """One in-flight cold run; followers block on ``event``."""

    __slots__ = ("event", "text", "error")

    def __init__(self):
        self.event = threading.Event()
        self.text = None
        self.error = None


@dataclass
class _BatchItem:
    """One cold extract miss parked in the batch window."""

    original: CSRMatrix
    key: str
    cfg: dict
    event: threading.Event = field(default_factory=threading.Event)
    payload: dict | None = None
    error: BaseException | None = None
    batch_size: int = 1


class ReproServer:
    """The daemon: request handling, caching, coalescing, shutdown.

    Usable purely in-process (``handle_request(dict) -> dict``, what the
    tests drive) or as a stream daemon (:meth:`handle_line` and
    :meth:`serve_forever` over line-delimited JSON, what ``repro serve``
    runs).  Both answer from one request path, whose responses carry a
    ``result`` as its stored canonical JSON text: a line writes that text
    in as it is, and ``handle_request`` decodes it.
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
            clock=clock, slow_trace_fraction=self.config.slow_trace_fraction
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
        # warm-seed store for the update op: extract key ->
        # LinearForestResult.  The JSON result cache only holds payloads,
        # which cannot seed the delta engine; this small LRU keeps the most
        # recent full results in memory so updates run warm.
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
        return _response_line(self._handle(request))

    def handle_request(self, request) -> dict:
        """Serve one request dict; never raises on request errors.

        A ``result`` is decoded afresh from the stored text, so the caller
        owns it: changing it changes no later response.
        """
        response = self._handle(request)
        if "result" in response:
            response["result"] = json.loads(response["result"])
        return response

    def _handle(self, request) -> dict:
        """The one request path; a ``result`` is canonical JSON text."""
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
                    key = request_key("extract" if op == "update" else op, keyed, cfg)
                session.annotate(
                    key=key, n_vertices=a.n_rows, nnz=a.nnz,
                    n_edits=None if edits is None else len(edits),
                )
                result, cached, delta = self._resolve(
                    op, key, keyed, cfg, session,
                    update=None if edits is None else (a, edits),
                )
            report = session.finish()
            report["serve"] = self._record_session(session, t0)
            return {
                "id": request_id, "ok": True, "op": op, "protocol": PROTOCOL,
                "key": key, "cached": cached, "result": result,
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
    def _seed_warm(self, key, result) -> dict:
        """Keep ``result``, the extraction keyed ``key``, for later updates
        and return its payload; every extraction the daemon runs passes here."""
        if self.config.warm_results > 0:
            with self._lock:
                self._warm[key] = result
                self._warm.move_to_end(key)
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
    def _resolve(self, op, key, a, cfg, session, update=None):
        """The cache contract: hit replays, miss runs, identical misses share.

        An update passes the edited matrix as ``a`` and ``update=(pre-edit
        matrix, edits)``.  Returns ``(text, cached, delta)``: ``text`` is the
        payload's canonical JSON, which a miss encodes once for the cache
        and its response; ``delta`` is ``None`` except on an update's own
        miss.
        """
        with self._lock:
            text = self.cache.get_text(key)
            if text is not None:
                self.metrics.counter("serve.cache.hit").inc()
                session.record_cache(hit=True)
                return text, True, None
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
            return waiter.text, True, None
        self.metrics.counter("serve.cache.miss").inc()
        session.record_cache(hit=False)
        delta = None
        try:
            with session.span("serve-pipeline"):
                batch_size = 1
                if update is not None:
                    payload, delta = self._run_update(*update, key, a, cfg, session)
                elif op == "extract" and self.config.batch_window > 0:
                    payload, batch_size = self._batched_extract(key, a, cfg)
                else:
                    payload = self._run_solo(op, key, a, cfg)
            if op == "extract":
                session.record_batch(batch_size)
                self.metrics.histogram("serve.batch.size").observe(batch_size)
            # finite weights can still overflow the coverage sums
            coverage = payload.get("coverage")
            if coverage is not None and not np.isfinite(coverage):
                raise ConfigError(f"{op} coverage is {coverage}: the weights overflow")
            text = canonical_json(payload)
        except BaseException as exc:
            with self._lock:
                self._inflight.pop(key, None)
            waiter.error = exc
            waiter.event.set()
            raise
        with self._lock:
            stored = self.cache.put_text(key, text)
            self._inflight.pop(key, None)
        waiter.text = text
        waiter.event.set()
        session.annotate(stored=stored)
        return text, False, delta

    def _run_device(self) -> Device:
        """The metering device of one cold pipeline run.

        Tests inject a shared recording device at construction; the real
        daemon gets a fresh per-run one instead — its launches and bytes
        land on the session tracer's kernel spans (that's where per-request
        attribution reads them) and the device itself is discarded with the
        request, so a long-lived daemon never accumulates launch records.
        """
        return self.device if self.device is not None else Device("serve-request")

    def _run_solo(self, op, key, a, cfg):
        if op == "extract":
            return self._seed_warm(key, extract_linear_forest(
                a, _config_from(cfg), device=self._run_device(),
                merged_scan=cfg["merged_scan"], compaction=self.config.compaction,
            ))
        if op == "factor":
            res = parallel_factor(
                prepare_graph(a), _config_from(cfg, n=cfg["n"]),
                device=self._run_device(), compaction=self.config.compaction,
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
            x_t = _paper_solution(n)
            b = a.matvec(x_t)
        precond = _PRECONDITIONERS[cfg["preconditioner"]](a)
        res = bicgstab(
            a, b, preconditioner=precond, tol=cfg["tol"],
            max_iterations=cfg["max_iterations"], true_solution=x_t,
        )
        h = res.history
        return {
            "op": "solve",
            "x": res.x.tolist(),
            "converged": bool(res.converged),
            "iterations": int(h.n_iterations),
            "final_residual": float(h.final_residual),
            "preconditioner": precond.name,
            "preconditioner_coverage": float(precond.coverage),
        }

    def _run_update(self, before, edits, key, a, cfg, session):
        """An update miss: ``apply_edits`` on the warm extraction of
        ``before`` if the store holds one, else a cold extract of the edited
        ``a``.  Returns the payload and the response's ``delta``."""
        wkey = request_key("extract", before, cfg)
        with self._lock:
            warm = self._warm.get(wkey)
            if warm is not None:
                self._warm.move_to_end(wkey)
        if warm is None:
            self.metrics.counter("serve.delta.cold").inc()
            session.annotate(delta="cold")
            payload = self._run_solo("extract", key, a, cfg)
            return payload, {"warm": False, "stats": None}
        self.metrics.counter("serve.delta.warm").inc()
        session.annotate(delta="warm")
        updated = apply_edits(
            warm, edits, before, _config_from(cfg), device=self._run_device(),
            compaction=self.config.compaction,
        )
        payload = self._seed_warm(key, updated.result)
        return payload, {"warm": True, "stats": updated.stats.to_dict()}

    # -- window batching of cold extract misses ----------------------------
    def _batched_extract(self, key, a, cfg):
        """Park a cold miss in the batch window; one leader runs the pack.

        The first miss to arrive becomes the window leader: it sleeps for
        ``batch_window`` seconds, then swaps out everything that parked in
        the meantime and runs it as one block-diagonal batch.  Members are
        grouped by (config digest, value dtype) because the batch engine
        requires one config and one dtype per pack; each group > 1 goes
        through :func:`~repro.batch.extract_linear_forest_batch`, singleton
        groups run solo so their launch accounting matches a plain request.
        """
        item = _BatchItem(original=a, key=key, cfg=cfg)
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
                (config_digest(item.cfg), item.original.dtype.name), []
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
                self._run_solo("extract", group[0].key, group[0].original, cfg)
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
                self._seed_warm(item.key, member)
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
                out_stream.write(_response_line(response) + "\n")
                out_stream.flush()

        def worker(request) -> None:
            try:
                emit(self._handle(request))
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


def _response_line(response: dict) -> str:
    """``json.dumps(response)``, with the ``result`` text written in as it is."""
    if "result" not in response:
        return json.dumps(response)
    pieces = []
    for key, value in response.items():
        pieces.append(f"{', ' if pieces else '{'}{json.dumps(key)}: ")
        pieces.append(value if key == "result" else json.dumps(value))
    pieces.append("}")
    # one join copies the result text once: formatting a 0.9 MB text into
    # an f-string inside a join took 1.0 ms, this 0.07 ms
    return "".join(pieces)


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
