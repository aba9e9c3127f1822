"""Weight-coverage metrics, Equations 3–5 of the paper.

The weight of a factor is ω_π = Σ_{e ∈ E_π} |ω(e)| over its undirected edges
(Eq. 3), the *relative weight coverage* is c_π = ω_π / ω_G (Eq. 4), and c_id
(Eq. 5) is the coverage of the sub/superdiagonal in the original vertex
order — the weight a tridiagonal preconditioner would capture without any
reordering.

For non-symmetric A the paper computes the factor on ``A' + A'^T`` but reports
coverage *with respect to the original matrix A*.  We define the undirected
edge weight as ``|ω({v,w})| := (|a_vw| + |a_wv|) / 2``, which reduces exactly
to the paper's |ω| for symmetric matrices and counts each direction of a
non-symmetric coupling once.

:func:`band_coverage` is Eq. 4 for a forest whose tridiagonal system was
just extracted: it reads each edge's two couplings from the bands instead of
making a pass over A's nonzeros, and agrees with :func:`coverage` bit for
bit.
"""

from __future__ import annotations

import numpy as np

from .._validation import INDEX_DTYPE, VALUE_DTYPE, require
from ..sparse.csr import CSRMatrix
from .permutation import inverse_permutation
from .structures import NO_PARTNER, Factor, slot_hits

__all__ = [
    "band_coverage",
    "coverage",
    "factor_weight",
    "graph_weight",
    "identity_coverage",
    "weighted_band_coverage",
]


def graph_weight(a: CSRMatrix) -> float:
    """ω_G: total undirected off-diagonal weight of the graph of ``A``."""
    off = a.nnz_rows != a.indices
    return float(np.abs(a.data[off]).sum()) / 2.0


def _edge_weights(a: CSRMatrix, factor: Factor) -> np.ndarray:
    """|ω({u, v})| = (|a_uv| + |a_vu|) / 2 per edge, in ``factor.edges()``
    order.

    Every nonzero meets the factor at its lower endpoint, one partner slot at
    a time (:func:`~repro.core.structures.slot_hits`, the helper behind the
    coefficient extraction's membership test): when ``v`` sits in slot ``j``
    of ``u < v``, ``a_uv`` is the forward and ``a_vu`` the backward weight of
    the entry ``u·n + j``, which is where :meth:`Factor.edge_entries` finds
    the edge.
    """
    n_vertices, n = factor.neighbors.shape
    require(
        a.shape == (n_vertices, n_vertices),
        f"factor of {n_vertices} vertices does not match a matrix of shape {a.shape}",
    )
    rows, cols = a.nnz_rows, a.indices
    low, high = np.minimum(rows, cols), np.maximum(rows, cols)
    n_entries = n_vertices * n
    # forward weights in the first half, backward weights in the second
    weights = np.zeros(2 * n_entries, dtype=VALUE_DTYPE)
    for j, hit in enumerate(slot_hits(factor.slots, low, high)):
        k = np.flatnonzero(hit)
        backward = rows[k] > cols[k]
        weights[low[k] * n + j + backward * n_entries] = np.abs(a.data[k])
    entries = factor.edge_entries()
    return (weights[entries] + weights[entries + n_entries]) / 2.0


def factor_weight(a: CSRMatrix, factor: Factor) -> float:
    """ω_π (Eq. 3) of ``factor`` with respect to the original matrix ``A``."""
    return float(_edge_weights(a, factor).sum())


def coverage(a: CSRMatrix, factor: Factor) -> float:
    """c_π (Eq. 4).  Returns 0 for an edgeless graph."""
    total = graph_weight(a)
    if total == 0.0:
        return 0.0
    return factor_weight(a, factor) / total


def band_coverage(a: CSRMatrix, forest: Factor, perm: np.ndarray, bands) -> float:
    """c_π (Eq. 4) of a linear forest, with ω_π read from its bands.

    ``perm`` and ``bands`` (a :class:`~repro.core.extraction.TridiagonalSystem`)
    are the forest's permutation and its extraction from ``A``.  A forest
    edge joins consecutive positions ``k`` and ``k + 1``, and the bands hold
    its two couplings in ``du[k]`` and ``dl[k + 1]`` (0 where ``A`` stores
    none).  The per-edge ``(|a_uv| + |a_vu|) / 2`` is summed in float64 in
    :meth:`Factor.edges` order, exactly as :func:`coverage` sums it, so the
    two agree bit for bit; only ω_G still reads every nonzero of ``A``.
    """
    return weighted_band_coverage(graph_weight(a), forest, perm, bands)


def weighted_band_coverage(total: float, forest: Factor, perm: np.ndarray, bands) -> float:
    """:func:`band_coverage` with ω_G given as ``total``: the delta engine
    reads it from a prepared graph that holds every off-diagonal entry."""
    if total == 0.0:
        return 0.0
    entries = forest.edge_entries()
    position = inverse_permutation(perm)
    k = np.minimum(
        position[entries // forest.n], position[forest.neighbors.ravel()[entries]]
    )
    weights = (
        np.abs(bands.du[k]).astype(VALUE_DTYPE) + np.abs(bands.dl[k + 1]).astype(VALUE_DTYPE)
    ) / 2.0
    return float(weights.sum()) / total


def identity_coverage(a: CSRMatrix) -> float:
    """c_id (Eq. 5): coverage of the sub/superdiagonal in original order."""
    total = graph_weight(a)
    if total == 0.0 or a.n_rows < 2:
        return 0.0
    # the original order as a path factor: v's partners are v - 1 and v + 1
    ids = np.arange(a.n_rows, dtype=INDEX_DTYPE)
    path = np.stack([ids - 1, ids + 1], axis=1)
    path[-1, 1] = NO_PARTNER
    return factor_weight(a, Factor(path)) / total
