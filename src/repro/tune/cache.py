"""The versioned ``tuning.json`` policy cache and the ``"auto"`` lookup.

One JSON document, schema-tagged ``repro.tune/tuning/v1``, holding one
:class:`TuningEntry` per graph fingerprint: the recommended policy spec plus
the modeled/measured traffic behind the recommendation.  Written by
:func:`repro.tune.tuner.tune_suite` (the ``repro tune`` CLI subcommand) and
consulted by :func:`repro.core.frontier.resolve_compaction` when the spec is
``"auto"``.

The consult path is deliberately *tolerant*: a missing cache file, an
unreadable or corrupt document, a schema mismatch, an unknown fingerprint or
a bad stored policy spec must never break a run — each degrades to the
static ``adaptive`` policy with a :class:`TuningWarning` naming the reason
(and bumps the ``tune.auto.miss`` counter when a metrics registry is
ambient).  Strict loading for tools that *want* the errors is
:meth:`TuningCache.load`.
"""

from __future__ import annotations

import json
import os
import threading
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from .._atomic import atomic_open
from ..core.frontier import AdaptiveCompaction, CompactionPolicy, resolve_compaction
from ..errors import ConfigError
from ..obs.metrics import current_metrics
from ..sparse.csr import CSRMatrix
from .fingerprint import GraphFingerprint, fingerprint_graph

__all__ = [
    "ENV_CACHE",
    "TUNING_SCHEMA",
    "TuningCache",
    "TuningEntry",
    "TuningWarning",
    "auto_policy",
    "default_cache_path",
]

#: Schema tag of the tuning.json document; bumping it invalidates old caches.
TUNING_SCHEMA = "repro.tune/tuning/v1"

#: Environment variable overriding the default cache location.
ENV_CACHE = "REPRO_TUNING_CACHE"

#: Default cache file name, resolved against the working directory.
DEFAULT_FILENAME = "tuning.json"


class TuningWarning(UserWarning):
    """Raised (as a warning) whenever an ``"auto"`` lookup degrades."""


@dataclass(frozen=True)
class TuningEntry:
    """One tuned matrix: the winning policy and the numbers behind it."""

    policy: str
    fingerprint: GraphFingerprint
    modeled_bytes: dict = field(default_factory=dict)
    measured_bytes: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "policy": self.policy,
            "fingerprint": self.fingerprint.to_dict(),
            "modeled_bytes": dict(self.modeled_bytes),
            "measured_bytes": {k: dict(v) for k, v in self.measured_bytes.items()},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TuningEntry":
        try:
            return cls(
                policy=str(d["policy"]),
                fingerprint=GraphFingerprint.from_dict(d["fingerprint"]),
                modeled_bytes=dict(d.get("modeled_bytes", {})),
                measured_bytes=dict(d.get("measured_bytes", {})),
            )
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"malformed tuning entry: {d!r}") from exc


@dataclass
class TuningCache:
    """In-memory view of one ``tuning.json`` document."""

    scale: float = 1.0
    entries: dict = field(default_factory=dict)  # fingerprint key -> TuningEntry

    def record(self, entry: TuningEntry) -> None:
        self.entries[entry.fingerprint.key] = entry

    def lookup(self, fingerprint: GraphFingerprint) -> TuningEntry | None:
        return self.entries.get(fingerprint.key)

    def to_dict(self) -> dict:
        return {
            "schema": TUNING_SCHEMA,
            "scale": self.scale,
            "entries": {key: e.to_dict() for key, e in sorted(self.entries.items())},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TuningCache":
        if not isinstance(d, dict):
            raise ConfigError(f"tuning cache must be a JSON object, got {type(d).__name__}")
        schema = d.get("schema")
        if schema != TUNING_SCHEMA:
            raise ConfigError(
                f"tuning cache schema {schema!r} does not match {TUNING_SCHEMA!r}"
            )
        entries = d.get("entries", {})
        if not isinstance(entries, dict):
            raise ConfigError("tuning cache 'entries' must be an object")
        cache = cls(scale=float(d.get("scale", 1.0)))
        for key, raw in entries.items():
            cache.entries[str(key)] = TuningEntry.from_dict(raw)
        return cache

    @classmethod
    def load(cls, path: "str | os.PathLike") -> "TuningCache":
        """Strict load: raises on a missing/corrupt/mismatched document."""
        with open(path, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"tuning cache {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(doc)

    def save(self, path: "str | os.PathLike") -> None:
        """Atomically (re)write the cache document at ``path``.

        The document is staged in a temporary file in the same directory and
        moved into place with :func:`os.replace`, so a crash mid-write (or a
        concurrent ``repro tune``) can never leave a truncated
        ``tuning.json`` behind for the strict :meth:`load` to reject —
        readers see either the old document or the new one, never a partial
        write.
        """
        with atomic_open(path) as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


@dataclass
class _DefaultPathState:
    """Where the relative ``./tuning.json`` default was first resolved."""

    path: Path | None = None
    cwd: Path | None = None
    warned: bool = False


_DEFAULT_STATE = _DefaultPathState()


def default_cache_path() -> Path:
    """``$REPRO_TUNING_CACHE`` when set, else ``./tuning.json`` — absolute.

    The relative default is resolved against the working directory **at
    first use** and pinned for the rest of the process: a long-lived caller
    (the :mod:`repro.serve` daemon, a notebook that ``os.chdir``\\ s) would
    otherwise silently start missing its own cache mid-process the moment
    the working directory moved.  When a later call finds that the current
    directory would have resolved the default differently, a one-shot
    :class:`TuningWarning` names the pinned path.  An explicit
    ``$REPRO_TUNING_CACHE`` is the caller's choice and is simply made
    absolute against the current directory on every call.
    """
    env = os.environ.get(ENV_CACHE, "").strip()
    if env:
        return Path(env).absolute()
    cwd = Path.cwd()
    state = _DEFAULT_STATE
    if state.path is None:
        state.path = (cwd / DEFAULT_FILENAME).absolute()
        state.cwd = cwd
    elif not state.warned and (cwd / DEFAULT_FILENAME).absolute() != state.path:
        state.warned = True
        warnings.warn(
            f"the default tuning cache was pinned to {state.path} when first "
            f"resolved (cwd was {state.cwd}); the working directory is now "
            f"{cwd}, which would resolve {DEFAULT_FILENAME!r} elsewhere — "
            f"set ${ENV_CACHE} to address a different cache explicitly",
            TuningWarning,
            stacklevel=2,
        )
    return state.path


#: Parsed-document memo behind :func:`auto_policy`: one strict load per
#: on-disk version of each cache file instead of one per resolution.
_PARSED_LOCK = threading.Lock()
_PARSED: dict = {}  # str(path) -> ((mtime_ns, size), TuningCache)


def _load_parsed(path: Path) -> TuningCache:
    """Load ``path`` through the in-process parse cache.

    The parsed :class:`TuningCache` is reused while the file's
    ``(mtime_ns, size)`` stat signature is unchanged — under a long-lived
    daemon the per-request ``"auto"`` resolution otherwise re-reads and
    re-parses the document from disk every time.  Any on-disk update (a
    concurrent ``repro tune`` finishing its atomic rename) changes the
    signature and is picked up on the next resolution.
    """
    st = os.stat(path)
    signature = (st.st_mtime_ns, st.st_size)
    key = str(path)
    with _PARSED_LOCK:
        memo = _PARSED.get(key)
        if memo is not None and memo[0] == signature:
            return memo[1]
    cache = TuningCache.load(path)
    with _PARSED_LOCK:
        _PARSED[key] = (signature, cache)
    return cache


def _miss(reason: str) -> CompactionPolicy:
    warnings.warn(
        f"auto compaction: {reason}; falling back to the adaptive policy "
        "(run `python -m repro tune` to build a tuning cache)",
        TuningWarning,
        stacklevel=3,
    )
    metrics = current_metrics()
    if metrics is not None:
        metrics.counter("tune.auto.miss").inc()
    return AdaptiveCompaction()


def auto_policy(
    graph: CSRMatrix | None,
    *,
    path: "str | os.PathLike | None" = None,
) -> CompactionPolicy:
    """Resolve the ``"auto"`` compaction spec for a prepared graph.

    Consults the tuning cache at ``path`` (default:
    :func:`default_cache_path`) under the graph's fingerprint.  Every
    failure mode — no graph to fingerprint, missing cache, corrupt or
    old-schema document, fingerprint miss, unresolvable stored policy —
    degrades to :class:`~repro.core.frontier.AdaptiveCompaction` with a
    :class:`TuningWarning`; this function never raises.
    """
    if graph is None:
        return _miss("no graph available to fingerprint at resolution time")
    cache_path = Path(path) if path is not None else default_cache_path()
    if not cache_path.exists():
        return _miss(f"no tuning cache at {cache_path}")
    try:
        cache = _load_parsed(cache_path)
    except (OSError, ConfigError) as exc:
        return _miss(f"could not use tuning cache {cache_path}: {exc}")
    fingerprint = fingerprint_graph(graph)
    entry = cache.lookup(fingerprint)
    if entry is None:
        return _miss(f"no tuned policy for fingerprint {fingerprint.key} in {cache_path}")
    spec = entry.policy
    if spec == "auto":
        return _miss(f"tuning cache {cache_path} stores a recursive 'auto' policy")
    try:
        policy = resolve_compaction(spec)
    except ConfigError as exc:
        return _miss(f"tuning cache {cache_path} stores a bad policy spec: {exc}")
    metrics = current_metrics()
    if metrics is not None:
        metrics.counter("tune.auto.hit").inc()
    return policy
