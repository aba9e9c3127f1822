"""Block-diagonal packing of many CSR matrices into one super-graph.

The batch extraction engine (:mod:`repro.batch`) runs the whole pipeline —
Algorithms 1–3 and the bidirectional scans — *once* over N member graphs by
stacking them into a single block-diagonal adjacency: member ``i``'s vertex
``v`` becomes super-vertex ``offsets[i] + v``.  No member shares an edge
with another, so every per-row/per-component kernel of the pipeline treats
the members independently; the packing only changes *launch counts*, never
results (see ``docs/ALGORITHMS.md`` for the path-id-namespacing argument).

The GPU bipartite-matching literature uses the same trick for many-problem
throughput: one launch over the disjoint union amortizes the fixed per-launch
cost that dominates small graphs.
"""

from __future__ import annotations

import numpy as np

from .._validation import INDEX_DTYPE
from ..errors import ShapeError
from .build import PreparedGraph
from .csr import CSRMatrix

__all__ = ["block_diag", "block_offsets", "split_ranges"]


def block_offsets(matrices: "list[CSRMatrix] | tuple[CSRMatrix, ...]") -> np.ndarray:
    """Vertex offset table of the packed graph: length ``N + 1``.

    Member ``i`` occupies super-vertices ``[offsets[i], offsets[i+1])``.
    """
    sizes = [m.n_rows for m in matrices]
    return np.concatenate(
        [np.zeros(1, dtype=INDEX_DTYPE), np.cumsum(sizes, dtype=INDEX_DTYPE)]
    )


def block_diag(
    matrices: "list[CSRMatrix] | tuple[CSRMatrix, ...]",
) -> tuple[CSRMatrix, np.ndarray]:
    """Stack square CSR matrices into one block-diagonal super-matrix.

    Returns ``(packed, offsets)`` where ``offsets`` has length ``N + 1`` and
    member ``i`` owns rows/columns ``[offsets[i], offsets[i+1])`` of
    ``packed``.  Row segments are plain concatenations with shifted column
    indices, so the pack is a pure layout transform: values, in-row order and
    dtype are preserved exactly.

    All members must be square and share one value dtype (mixing float32 and
    float64 members would silently promote the float32 ones — the caller
    must choose; see :func:`repro.batch.extract_linear_forest_batch`).  A
    pack of :class:`~repro.sparse.build.PreparedGraph` members is one too.
    """
    if not matrices:
        raise ShapeError("block_diag requires at least one matrix")
    for i, m in enumerate(matrices):
        if not isinstance(m, CSRMatrix):
            raise ShapeError(
                f"block_diag member {i} is {type(m).__name__}, expected CSRMatrix"
            )
        if m.n_rows != m.n_cols:
            raise ShapeError(
                f"block_diag member {i} is not square: shape {m.shape}"
            )
    dtypes = {m.dtype for m in matrices}
    if len(dtypes) > 1:
        raise ShapeError(
            f"block_diag members mix value dtypes {sorted(d.name for d in dtypes)}"
        )
    offsets = block_offsets(matrices)
    n_total = int(offsets[-1])
    indptr = np.zeros(n_total + 1, dtype=INDEX_DTYPE)
    parts_idx = []
    parts_val = []
    nnz_base = 0
    for i, m in enumerate(matrices):
        lo = int(offsets[i])
        indptr[lo + 1 : lo + m.n_rows + 1] = m.indptr[1:] + nnz_base
        parts_idx.append(m.indices + lo)
        parts_val.append(m.data)
        nnz_base += m.nnz
    indices = (
        np.concatenate(parts_idx) if parts_idx else np.empty(0, dtype=INDEX_DTYPE)
    )
    data = (
        np.concatenate(parts_val)
        if parts_val
        else np.empty(0, dtype=matrices[0].dtype)
    )
    cls = PreparedGraph if all(isinstance(m, PreparedGraph) for m in matrices) else CSRMatrix
    return cls(indptr, indices, data, (n_total, n_total)), offsets


def split_ranges(offsets: np.ndarray) -> "list[tuple[int, int]]":
    """Per-member ``(lo, hi)`` super-vertex ranges from the offset table."""
    offsets = np.asarray(offsets, dtype=INDEX_DTYPE)
    return [
        (int(offsets[i]), int(offsets[i + 1])) for i in range(offsets.size - 1)
    ]
