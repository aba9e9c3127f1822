"""Graph/matrix preparation used throughout the paper.

Section 4 of the paper: *"To avoid additional branching in the kernels the
diagonal of A is deducted and the coefficients are set to their absolute
values with A' := |A| - diag(|A|) before the [0,n]-factor computation"* and
(Section 5.1) *"When A' is not symmetric, the [0,n]-factor computations use
A' + A'^T"*.  :func:`prepare_graph` performs exactly this pipeline.
"""

from __future__ import annotations

import numpy as np

from .._validation import INDEX_DTYPE, VALUE_DTYPE, check_square
from ..errors import ShapeError
from .coo import COOMatrix
from .csr import CSRMatrix

__all__ = [
    "absolute_offdiag",
    "add",
    "from_dense",
    "from_edges",
    "prepare_graph",
    "symmetrize",
]


def from_dense(dense: np.ndarray, tol: float = 0.0) -> CSRMatrix:
    """Build a CSR matrix from a dense array, dropping ``|v| <= tol``."""
    return COOMatrix.from_dense(dense, tol=tol).to_csr()


def from_edges(
    n_vertices: int,
    u,
    v,
    w,
    *,
    symmetric: bool = True,
    diagonal: np.ndarray | None = None,
) -> CSRMatrix:
    """Build the adjacency matrix of a weighted graph from an edge list.

    Parameters
    ----------
    u, v, w:
        Endpoint and weight arrays; each entry is one edge.  With
        ``symmetric=True`` (undirected graph) both ``(u, v)`` and ``(v, u)``
        are stored.  Duplicate edges have their weights summed.
    diagonal:
        Optional dense diagonal to add (e.g. for building test systems).
    """
    u = np.asarray(u, dtype=INDEX_DTYPE)
    v = np.asarray(v, dtype=INDEX_DTYPE)
    w = np.asarray(w, dtype=VALUE_DTYPE)
    if not (u.shape == v.shape == w.shape):
        raise ShapeError("u, v, w must have equal shapes")
    rows = [u]
    cols = [v]
    vals = [w]
    if symmetric:
        off = u != v
        rows.append(v[off])
        cols.append(u[off])
        vals.append(w[off])
    if diagonal is not None:
        diagonal = np.asarray(diagonal, dtype=VALUE_DTYPE)
        if diagonal.shape != (n_vertices,):
            raise ShapeError(f"diagonal must have length {n_vertices}")
        idx = np.arange(n_vertices, dtype=INDEX_DTYPE)
        rows.append(idx)
        cols.append(idx)
        vals.append(diagonal)
    coo = COOMatrix(
        row=np.concatenate(rows),
        col=np.concatenate(cols),
        val=np.concatenate(vals),
        shape=(n_vertices, n_vertices),
    )
    return coo.to_csr().to_coo().drop_zeros().to_csr()


def absolute_offdiag(a: CSRMatrix) -> CSRMatrix:
    """``A' = |A| - diag(|A|)``: absolute values, diagonal removed."""
    check_square(a.shape)
    val = np.abs(a.data)
    # a filter keeps the CSR order; ``val > 0`` drops explicit zeros and NaN
    keep = (a.nnz_rows != a.indices) & (val > 0)
    kept = np.zeros(a.nnz + 1, dtype=INDEX_DTYPE)
    np.cumsum(keep, out=kept[1:])
    return CSRMatrix(
        indptr=kept[a.indptr], indices=a.indices[keep], data=val[keep], shape=a.shape
    )


def add(a: CSRMatrix, b: CSRMatrix) -> CSRMatrix:
    """Elementwise sum ``A + B`` (shapes must match)."""
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")
    ca, cb = a.to_coo(), b.to_coo()
    return COOMatrix(
        row=np.concatenate([ca.row, cb.row]),
        col=np.concatenate([ca.col, cb.col]),
        val=np.concatenate([ca.val, cb.val]),
        shape=a.shape,
    ).to_csr()


def symmetrize(a: CSRMatrix) -> CSRMatrix:
    """``A + A^T`` (the paper's treatment of non-symmetric inputs)."""
    return add(a, a.transpose())


def prepare_graph(a: CSRMatrix) -> CSRMatrix:
    """The full preprocessing pipeline of the paper.

    Returns ``A' = |A| - diag(|A|)`` for symmetric input, and
    ``A' + A'^T`` otherwise.  The result is the weighted undirected graph on
    which the [0,n]-factor is computed; coverage statistics and coefficient
    extraction always refer back to the *original* matrix.
    """
    a_prime = absolute_offdiag(a)
    if a_prime.is_symmetric():
        return a_prime
    return symmetrize(a_prime)
