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
"""

from __future__ import annotations

import numpy as np

from ..sparse.csr import CSRMatrix
from .structures import Factor

__all__ = ["coverage", "factor_weight", "graph_weight", "identity_coverage"]


def graph_weight(a: CSRMatrix) -> float:
    """ω_G: total undirected off-diagonal weight of the graph of ``A``."""
    off = a.nnz_rows != a.indices
    return float(np.abs(a.data[off]).sum()) / 2.0


def _edge_weights(a: CSRMatrix, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """|ω({u_i, v_i})| = (|a_uv| + |a_vu|) / 2 per listed edge."""
    # one gather for both orientations: the key array over the nonzeros is
    # built once
    w = np.abs(a.gather(np.concatenate([u, v]), np.concatenate([v, u])))
    return (w[: u.size] + w[u.size :]) / 2.0


def factor_weight(a: CSRMatrix, factor: Factor) -> float:
    """ω_π (Eq. 3) of ``factor`` with respect to the original matrix ``A``."""
    u, v = factor.edges()
    if u.size == 0:
        return 0.0
    return float(_edge_weights(a, u, v).sum())


def coverage(a: CSRMatrix, factor: Factor) -> float:
    """c_π (Eq. 4).  Returns 0 for an edgeless graph."""
    total = graph_weight(a)
    if total == 0.0:
        return 0.0
    return factor_weight(a, factor) / total


def identity_coverage(a: CSRMatrix) -> float:
    """c_id (Eq. 5): coverage of the sub/superdiagonal in original order."""
    total = graph_weight(a)
    if total == 0.0 or a.n_rows < 2:
        return 0.0
    i = np.arange(a.n_rows - 1, dtype=np.int64)
    w = _edge_weights(a, i, i + 1)
    return float(w.sum()) / total
