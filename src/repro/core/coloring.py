"""Parallel greedy graph coloring (Jones-Plassmann).

The paper's Related Work cites efficient GPU graph *matching and coloring*
(Cohen & Castonguay; Naumov et al.) as the algorithmic neighbourhood of its
factor computation.  This module provides the coloring half on the same
substrate and with the same randomisation device: per round, every uncolored
vertex whose hash priority (the Algorithm 2 charge hash) is a strict local
maximum among its uncolored neighbours takes the smallest color unused in
its neighbourhood.  Expected O(log N) data-parallel rounds.

Used by :class:`repro.solvers.smoothers.ColoredGaussSeidel`: color classes
are independent sets, so a Gauss-Seidel sweep over one class is a single
vectorized update.
"""

from __future__ import annotations

import numpy as np

from .._validation import INDEX_DTYPE, check_square
from ..errors import ScanError
from ..sparse.csr import CSRMatrix
from .charge import charge_hash

__all__ = ["color_graph", "is_valid_coloring"]

UNCOLORED = -1


def color_graph(graph: CSRMatrix, *, seed: int = 0) -> np.ndarray:
    """Color the (symmetric-pattern) graph of ``graph``; returns colors ≥ 0.

    The diagonal is ignored.  The round bound is generous; exceeding it
    raises (it would indicate a priority-tie livelock, which the id
    tie-break prevents).
    """
    n = check_square(graph.shape)
    rows = graph.nnz_rows
    cols = graph.indices
    off = rows != cols
    rows, cols = rows[off], cols[off]

    # strict total priority order: hash first, vertex id as tie-break
    ids = np.arange(n, dtype=INDEX_DTYPE)
    priority = charge_hash(ids.astype(np.uint32), 0, seed).astype(np.uint64) << np.uint64(32)
    priority |= ids.astype(np.uint64)

    colors = np.full(n, UNCOLORED, dtype=INDEX_DTYPE)
    max_rounds = 4 * int(np.ceil(np.log2(max(n, 2)))) + 8
    # upper bound on colors: max degree + 1
    max_degree = int(graph.row_lengths.max(initial=0))
    n_colors_cap = max_degree + 1

    for _ in range(max_rounds):
        uncolored = colors == UNCOLORED
        if not bool(uncolored.any()):
            return colors
        # a vertex wins its round when no *uncolored* neighbour outranks it
        edge_live = uncolored[rows] & uncolored[cols]
        blocked = np.zeros(n, dtype=bool)
        lose = edge_live & (priority[cols] > priority[rows])
        np.logical_or.at(blocked, rows[lose], True)
        winners = uncolored & ~blocked
        if not bool(winners.any()):  # pragma: no cover - tie-break prevents this
            raise ScanError("coloring made no progress")
        # smallest color unused among already-colored neighbours
        win_edges = winners[rows] & (colors[cols] != UNCOLORED)
        used = np.zeros((n, n_colors_cap), dtype=bool)
        used[rows[win_edges], colors[cols[win_edges]]] = True
        first_free = np.argmin(used, axis=1)  # first False per row
        colors[winners] = first_free[winners]

    uncolored = colors == UNCOLORED
    if bool(uncolored.any()):  # pragma: no cover - bound is generous
        raise ScanError("coloring did not converge within the round bound")
    return colors


def is_valid_coloring(graph: CSRMatrix, colors: np.ndarray) -> bool:
    """No edge joins two vertices of the same color."""
    rows = graph.nnz_rows
    cols = graph.indices
    off = rows != cols
    return not bool((colors[rows[off]] == colors[cols[off]]).any())
