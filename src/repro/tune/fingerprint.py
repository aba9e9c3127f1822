"""Graph fingerprints — the per-matrix key of the tuning cache.

A fingerprint captures what the compaction-policy trade-off depends on: the
vertex count, the nonzero count, the (log2-bucketed) degree histogram and a
content digest of the *prepared* graph.  The digest covers the edge weights
because the frontier's collapse schedule does: two graphs on the same
stencil but with different anisotropy retire edges in a different order and
can want different policies (``aniso1`` vs ``aniso3``), so structure alone
must not collide them.  Any change to the matrix — a different scale, added
couplings, perturbed weights — changes the fingerprint and therefore misses
the cache (the invalidation rule of ``tuning.json``, see docs/TUNING.md).

Fingerprints are always computed on the output of
:func:`repro.sparse.build.prepare_graph`: that is the graph the
:class:`~repro.core.proposer.PropositionEngine` actually runs on, and it is
what :func:`repro.core.frontier.resolve_compaction` sees when resolving the
``"auto"`` spec.  The workload ``name`` rides along for reporting but is
*not* part of the key — the same matrix resolves regardless of its label.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..sparse.csr import CSRMatrix, matrix_digest

__all__ = [
    "FINGERPRINT_VERSION",
    "GraphFingerprint",
    "degree_histogram",
    "fingerprint_graph",
    "matrix_digest",
]

#: Bumped whenever the key derivation changes; part of every cache key, so a
#: schema change invalidates old entries instead of mis-resolving them.
#: v2: the content digest tags each buffer with its dtype and length, so
#: byte-coincident buffers of different dtypes (or with shifted array
#: boundaries) can no longer alias one digest.
FINGERPRINT_VERSION = 2


def degree_histogram(graph: CSRMatrix) -> tuple[int, ...]:
    """Log2-bucketed row-degree histogram of a CSR matrix.

    Bucket 0 counts empty rows; bucket ``i >= 1`` counts rows with degree in
    ``[2^(i-1), 2^i)``.  Trailing empty buckets are trimmed so the tuple is a
    stable, compact structural signature.
    """
    lengths = np.asarray(graph.row_lengths)
    if lengths.size == 0:
        return ()
    buckets = np.zeros(lengths.size, dtype=np.int64)
    positive = lengths > 0
    buckets[positive] = np.floor(np.log2(lengths[positive])).astype(np.int64) + 1
    hist = np.bincount(buckets)
    return tuple(int(c) for c in hist)


@dataclass(frozen=True)
class GraphFingerprint:
    """The cache key of one tuned matrix: (n, nnz, degree histogram, digest)."""

    n: int
    nnz: int
    degree_histogram: tuple[int, ...]
    digest: str = ""
    name: str | None = None

    @property
    def key(self) -> str:
        """Stable string key; excludes ``name`` (content only)."""
        hist = ".".join(str(c) for c in self.degree_histogram)
        return (
            f"v{FINGERPRINT_VERSION}:n={self.n}:nnz={self.nnz}"
            f":deg={hist}:w={self.digest}"
        )

    def to_dict(self) -> dict:
        return {
            "version": FINGERPRINT_VERSION,
            "n": self.n,
            "nnz": self.nnz,
            "degree_histogram": list(self.degree_histogram),
            "digest": self.digest,
            "name": self.name,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GraphFingerprint":
        try:
            return cls(
                n=int(d["n"]),
                nnz=int(d["nnz"]),
                degree_histogram=tuple(int(c) for c in d["degree_histogram"]),
                digest=str(d["digest"]),
                name=d.get("name"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed graph fingerprint: {d!r}") from exc


def fingerprint_graph(graph: CSRMatrix, *, name: str | None = None) -> GraphFingerprint:
    """Fingerprint a prepared graph (square adjacency)."""
    if graph.n_rows != graph.n_cols:
        raise ConfigError("fingerprints are defined on square adjacency matrices")
    return GraphFingerprint(
        n=graph.n_rows,
        nnz=graph.nnz,
        degree_histogram=degree_histogram(graph),
        # the 12-character prefix keeps every v2 key (and tuning.json) as is
        digest=matrix_digest(graph)[:12],
        name=name,
    )
