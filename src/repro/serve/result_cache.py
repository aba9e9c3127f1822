"""The content-keyed result store behind the ``repro serve`` daemon.

One :class:`ResultCache` maps request keys — ``op`` + input-matrix digest +
canonicalized config digest, see :mod:`repro.serve.server` — to the
JSON-safe result payload the cold run produced, held once, as its
canonical JSON text (:func:`canonical_json`).  A hit replays that text
verbatim, which is why serving from the cache is bit-identical to the cold
run: the text *is* the cold run's response body.  The server writes it into
the response line as it is; :meth:`ResultCache.get` decodes a fresh dict.

The store is a plain LRU over a byte budget: entries are charged the
length of their text (exactly what persistence writes), reads refresh
recency, and inserts evict from the cold end until the total fits.  A
payload larger than the whole budget is refused rather than allowed to
flush everything else.

Persistence follows the same atomic discipline as
:meth:`repro.tune.cache.TuningCache.save`: the document is staged in a
temporary file next to the target and moved into place with
:func:`os.replace`, so readers see either the old document or the new one,
never a torn write.  :meth:`ResultCache.load` is strict;
:meth:`ResultCache.load_or_empty` is the daemon's boot path — any unusable
document degrades to an empty cache with a :class:`ServeWarning` instead of
refusing to start.

The cache itself is not thread-safe; the server serializes access under its
request lock.
"""

from __future__ import annotations

import json
import os
import warnings
from collections import OrderedDict
from pathlib import Path

from .._atomic import atomic_open
from ..errors import ConfigError

__all__ = [
    "RESULTS_SCHEMA", "ResultCache", "ServeWarning", "canonical_json", "payload_nbytes",
]

#: Schema tag of the persisted result-cache document; bumping it invalidates
#: old documents instead of mis-reading them.  v2: keys carry the full input
#: digest and no prepared-graph fingerprint, so no request can reach a v1 key.
RESULTS_SCHEMA = "repro.serve/results/v2"


class ServeWarning(UserWarning):
    """Raised (as a warning) when the serve layer degrades instead of failing."""


def canonical_json(payload: dict) -> str:
    """The canonical JSON text of a payload: sorted keys, no spaces, ASCII.

    What the cache stores, charges, persists and hands to response lines.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def payload_nbytes(payload: dict) -> int:
    """Byte cost of one cached payload: its canonical JSON encoding.

    The same encoding persistence writes, so the in-memory budget and the
    on-disk footprint agree.
    """
    return len(canonical_json(payload))


class ResultCache:
    """LRU store of memoized request payloads under a byte budget.

    ``max_bytes=None`` means unbounded.  ``hits``/``misses``/``evictions``
    are running counters surfaced by the server's ``stats`` op.
    """

    def __init__(self, max_bytes: int | None = None):
        if max_bytes is not None and max_bytes < 0:
            raise ConfigError(f"result-cache byte budget cannot be negative: {max_bytes}")
        self.max_bytes = max_bytes
        # key -> (canonical JSON text, nbytes); order is recency, coldest first
        self._entries: "OrderedDict[str, tuple[str, int]]" = OrderedDict()
        self.total_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def keys(self) -> list:
        """Keys coldest-first (the eviction order)."""
        return list(self._entries)

    def get(self, key: str) -> dict | None:
        """A fresh decode of the payload under ``key`` (refreshing recency),
        or ``None``; the caller owns the dict."""
        text = self.get_text(key)
        return None if text is None else json.loads(text)

    def get_text(self, key: str) -> str | None:
        """The canonical JSON text under ``key`` (refreshing recency), or
        ``None``."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry[0]

    def put(self, key: str, payload: dict) -> bool:
        """Insert ``payload`` under ``key``, evicting coldest-first to fit.

        Returns ``False`` (and stores nothing) when the payload alone
        exceeds the whole budget — caching it would evict everything and
        still not fit.
        """
        return self.put_text(key, canonical_json(payload))

    def put_text(self, key: str, text: str) -> bool:
        """:meth:`put` for a payload already encoded by :func:`canonical_json`."""
        nbytes = len(text)  # ASCII, so one byte per character
        if self.max_bytes is not None and nbytes > self.max_bytes:
            return False
        old = self._entries.pop(key, None)
        if old is not None:
            self.total_bytes -= old[1]
        self._entries[key] = (text, nbytes)
        self.total_bytes += nbytes
        if self.max_bytes is not None:
            while self.total_bytes > self.max_bytes and len(self._entries) > 1:
                _, (_, evicted_nbytes) = self._entries.popitem(last=False)
                self.total_bytes -= evicted_nbytes
                self.evictions += 1
        return True

    def stats(self) -> dict:
        return {
            "entries": len(self._entries),
            "bytes": self.total_bytes,
            "max_bytes": self.max_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    # -- persistence -------------------------------------------------------
    @classmethod
    def from_dict(cls, d: dict, *, max_bytes: int | None = None) -> "ResultCache":
        """Rebuild a cache from its document.

        ``max_bytes`` overrides the stored budget (the daemon's configured
        budget wins over whatever the previous process used); re-inserting
        through :meth:`put` re-encodes each payload canonically and
        re-applies the budget, so a document written under a larger budget
        is trimmed coldest-first on load.
        """
        if not isinstance(d, dict):
            raise ConfigError(f"result cache must be a JSON object, got {type(d).__name__}")
        schema = d.get("schema")
        if schema != RESULTS_SCHEMA:
            raise ConfigError(
                f"result cache schema {schema!r} does not match {RESULTS_SCHEMA!r}"
            )
        entries = d.get("entries", {})
        if not isinstance(entries, dict):
            raise ConfigError("result cache 'entries' must be an object")
        stored = d.get("max_bytes")
        budget = max_bytes if max_bytes is not None else stored
        cache = cls(max_bytes=budget)
        for key, payload in entries.items():
            if not isinstance(payload, dict):
                raise ConfigError(f"result cache entry {key!r} must be an object")
            cache.put(str(key), payload)
        # loading is not traffic: the puts above are bookkeeping
        cache.hits = cache.misses = 0
        return cache

    @classmethod
    def load(cls, path: "str | os.PathLike", *, max_bytes: int | None = None) -> "ResultCache":
        """Strict load: raises on a missing/corrupt/mismatched document."""
        with open(path, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"result cache {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(doc, max_bytes=max_bytes)

    @classmethod
    def load_or_empty(
        cls, path: "str | os.PathLike", *, max_bytes: int | None = None
    ) -> "ResultCache":
        """Tolerant boot path: any unusable document degrades to empty.

        A missing file is a normal first boot and stays silent; anything
        else (unreadable file, corrupt JSON, schema mismatch) warns with
        :class:`ServeWarning` — the daemon must come up cold rather than
        refuse to start over a stale cache file.
        """
        path = Path(path)
        if not path.exists():
            return cls(max_bytes=max_bytes)
        try:
            return cls.load(path, max_bytes=max_bytes)
        except (OSError, ConfigError) as exc:
            warnings.warn(
                f"could not use result cache {path}: {exc}; starting cold",
                ServeWarning,
                stacklevel=2,
            )
            return cls(max_bytes=max_bytes)

    def save(self, path: "str | os.PathLike") -> None:
        """Atomically (re)write the cache document at ``path``.

        The document is ``{"schema", "max_bytes", "entries"}`` with the
        entries in recency order, coldest first, each written as its stored
        text.  Staged through :func:`repro._atomic.atomic_open`, like the
        tuning cache and the Prometheus exposition.
        """
        with atomic_open(path) as fh:
            fh.write(
                f'{{"schema":{json.dumps(RESULTS_SCHEMA)},'
                f'"max_bytes":{json.dumps(self.max_bytes)},"entries":{{'
            )
            for i, (key, (text, _)) in enumerate(self._entries.items()):
                fh.write(f"{',' if i else ''}{json.dumps(key)}:")
                fh.write(text)
            fh.write("}}\n")
