"""The tridiagonalising permutation (Section 3.3 step 3 / Section 4.3).

The paper sorts vertex ids by the composite key (path id, position) with
CUB's radix sort.  Here the sort collapses to its first and only pass: a
path id is a vertex id (the minimum end id), so a radix sort whose digit is
the *whole* path id needs n buckets, and each path's positions are exactly
``1..len``, so a vertex's slot inside its bucket is known without sorting.
The split radix sort of :mod:`repro.sort` stays as the reference the tests
compare against.  Under the resulting permutation, consecutive rows are
consecutive vertices of a path, so every linear-forest edge lands on the
sub/superdiagonal of ``Q^T A Q``.
"""

from __future__ import annotations

import numpy as np

from .._validation import INDEX_DTYPE
from ..errors import PathError, ShapeError
from .paths import PathInfo
from .structures import Factor

__all__ = ["forest_permutation", "inverse_permutation", "is_tridiagonal_under"]


def forest_permutation(info: PathInfo) -> np.ndarray:
    """Vertex ids ordered by (path id, position).

    Returns ``perm`` with ``perm[k]`` = the old id of the vertex at new
    position ``k``.  Counting placement: a histogram of the path ids, its
    exclusive scan ``start``, and the scatter of vertex ``v`` to
    ``start[path_id[v]] + position[v] - 1`` — equal to the stable sort by
    the packed ``(path id, position)`` key.  Raises
    :class:`~repro.errors.PathError` when a path id is not a vertex id or a
    path's positions are not ``1..len``.
    """
    path_id = np.asarray(info.path_id, dtype=INDEX_DTYPE)
    position = np.asarray(info.position, dtype=INDEX_DTYPE)
    n = path_id.size
    if path_id.ndim != 1 or position.shape != path_id.shape:
        raise ShapeError("path_id and position must be equal-length 1-D arrays")
    if n == 0:
        return np.empty(0, dtype=INDEX_DTYPE)
    if int(path_id.min()) < 0 or int(path_id.max()) >= n:
        raise PathError(f"path ids must be vertex ids in [0, {n})")
    sizes = np.bincount(path_id, minlength=n)
    if not bool(((position >= 1) & (position <= sizes[path_id])).all()):
        raise PathError("a path's positions must lie in 1..len")
    start = np.zeros(n, dtype=INDEX_DTYPE)
    np.cumsum(sizes[:-1], out=start[1:])
    perm = np.full(n, -1, dtype=INDEX_DTYPE)
    perm[start[path_id] + position - 1] = np.arange(n, dtype=INDEX_DTYPE)
    # every slot lies inside its own path's block, so an empty slot means
    # two vertices of one path share a position
    if bool((perm < 0).any()):
        raise PathError("a path's positions must be 1..len without repeats")
    return perm


def inverse_permutation(perm: np.ndarray) -> np.ndarray:
    """``new_index`` with ``new_index[old] = new``."""
    perm = np.asarray(perm, dtype=INDEX_DTYPE)
    new_index = np.empty_like(perm)
    new_index[perm] = np.arange(perm.size, dtype=INDEX_DTYPE)
    return new_index


def is_tridiagonal_under(factor: Factor, perm: np.ndarray) -> bool:
    """Does every factor edge land on the sub/superdiagonal under ``perm``?"""
    new_index = inverse_permutation(perm)
    u, v = factor.edges()
    if u.size == 0:
        return True
    return bool((np.abs(new_index[u] - new_index[v]) == 1).all())
