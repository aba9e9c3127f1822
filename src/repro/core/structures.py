"""The [0,n]-factor representation π (Section 3.1 of the paper).

A [0,n]-factor is a spanning subgraph in which every vertex has degree at
most ``n``.  Functionally, π maps each vertex to the set of its at most ``n``
partners (condition 1), and membership is mutual: ``v ∈ π(w) ⇔ w ∈ π(v)``
(condition 2 requires every included edge to exist in the graph).

The storage is the GPU layout of the paper: an ``(N, n)`` array of partner
ids with ``-1`` padding ("the confirmed edges vector ``x`` of length n·N",
Section 4.1).  Valid entries are compacted to the front of each row.

On the host, per-vertex questions are asked one slot column at a time:
:attr:`Factor.slots` holds the ``n`` columns contiguously, so a degree or a
membership test is ``n`` one-dimensional passes instead of a reduction or a
row gather along the short slot axis (:func:`slot_degrees`,
:func:`slot_hits`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .._validation import INDEX_DTYPE, require
from ..errors import FactorError, ShapeError

__all__ = ["Factor", "compact_rows", "is_partner", "slot_degrees", "slot_hits"]

#: Padding value for empty partner slots.
NO_PARTNER = -1


def slot_degrees(neighbors: np.ndarray) -> np.ndarray:
    """|π(v)| of every row of an ``(N, n)`` partner array, counted one slot
    column at a time."""
    filled = neighbors != NO_PARTNER
    degree = np.zeros(neighbors.shape[0], dtype=INDEX_DTYPE)
    for j in range(neighbors.shape[1]):
        degree += filled[:, j]
    return degree


def slot_hits(slots: np.ndarray, u: np.ndarray, v: np.ndarray) -> list[np.ndarray]:
    """One membership mask per partner slot: ``hits[j][i]`` tells whether
    ``v[i]`` is the ``j``-th partner of ``u[i]``.

    ``slots`` is the ``(n, N)`` slot-column layout (:attr:`Factor.slots`), so
    each test is a one-dimensional ``take``.  Every ``u`` must lie in
    ``[0, N)`` and no ``v`` may be negative, or the ``-1`` padding would match;
    :meth:`Factor.contains_edges` masks arbitrary ids first.
    """
    return [column.take(u) == v for column in slots]


def is_partner(slots: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``v[i] ∈ π(u[i])``: the union of :func:`slot_hits`, with its
    preconditions."""
    found = np.zeros(np.shape(u), dtype=bool)
    for hit in slot_hits(slots, u, v):
        found |= hit
    return found


def compact_rows(neighbors: np.ndarray) -> np.ndarray:
    """Stably push ``-1`` entries to the end of each row, in a new array.

    Only the rows with an empty slot before a filled one move; they are
    found one slot column at a time, and the rest is copied as is.
    """
    out = neighbors.copy()
    is_empty = neighbors == NO_PARTNER
    gap = np.zeros(neighbors.shape[0], dtype=bool)
    for j in range(neighbors.shape[1] - 1):
        gap |= is_empty[:, j] & ~is_empty[:, j + 1]
    rows = np.flatnonzero(gap)
    if rows.size:
        order = np.argsort(is_empty[rows], axis=1, kind="stable")
        out[rows] = np.take_along_axis(neighbors[rows], order, axis=1)
    return out


@dataclass(frozen=True)
class Factor:
    """An immutable [0,n]-factor.

    Attributes
    ----------
    neighbors:
        ``(N, n)`` int64 array; row ``v`` lists π(v), ``-1`` padded at the
        end.
    """

    neighbors: np.ndarray

    def __post_init__(self) -> None:
        neigh = np.ascontiguousarray(self.neighbors, dtype=INDEX_DTYPE)
        require(neigh.ndim == 2, f"neighbors must be 2-D, got ndim={neigh.ndim}")
        object.__setattr__(self, "neighbors", compact_rows(neigh))

    # -- basic queries -----------------------------------------------------
    @property
    def n_vertices(self) -> int:
        return int(self.neighbors.shape[0])

    @property
    def n(self) -> int:
        """The degree bound of the factor."""
        return int(self.neighbors.shape[1])

    @cached_property
    def degrees(self) -> np.ndarray:
        """|π(v)| for every vertex."""
        return slot_degrees(self.neighbors)

    @cached_property
    def slots(self) -> np.ndarray:
        """The ``(n, N)`` slot columns: ``slots[j]`` holds every vertex's
        ``j``-th partner, contiguously."""
        return np.ascontiguousarray(self.neighbors.T)

    @property
    def size(self) -> int:
        """Σ|π(v)| — twice the number of edges (the paper's |π(V)| measure)."""
        return int(self.degrees.sum())

    @property
    def edge_count(self) -> int:
        return self.size // 2

    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Unique undirected edges as ``(u, v)`` arrays with ``u < v``."""
        entries = self.edge_entries()
        return entries // self.n, self.neighbors.ravel()[entries]

    def edge_entries(self) -> np.ndarray:
        """Flat index ``u·n + j`` of the slot holding each edge of
        :meth:`edges`, in the same order."""
        n_vertices, n = self.neighbors.shape
        rows = np.repeat(np.arange(n_vertices, dtype=INDEX_DTYPE), n)
        cols = self.neighbors.ravel()
        return np.flatnonzero((cols != NO_PARTNER) & (rows < cols))

    def contains_edges(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Boolean mask: is ``{u[i], v[i]}`` an edge of the factor?  An id
        outside ``[0, N)``, on either side, is no vertex and answers ``False``."""
        u = np.asarray(u, dtype=INDEX_DTYPE)
        v = np.asarray(v, dtype=INDEX_DTYPE)
        n_vertices = self.n_vertices
        inside = (u >= 0) & (u < n_vertices) & (v >= 0) & (v < n_vertices)
        if not n_vertices:
            return inside
        return inside & is_partner(self.slots, np.where(inside, u, 0), v)

    # -- derived factors -----------------------------------------------------
    def remove_edges(self, u: np.ndarray, v: np.ndarray) -> "Factor":
        """Return a factor with the listed (undirected) edges removed."""
        u = np.asarray(u, dtype=INDEX_DTYPE)
        v = np.asarray(v, dtype=INDEX_DTYPE)
        neigh = self.neighbors.copy()
        # clear both directions; duplicates in the removal list are harmless
        for a, b in ((u, v), (v, u)):
            slots = neigh[a] == b[..., None]
            rows = np.repeat(a, self.n)[slots.ravel()]
            cols = np.tile(np.arange(self.n), a.size)[slots.ravel()]
            neigh[rows, cols] = NO_PARTNER
        return Factor(neigh)

    def restrict_to(self, keep_mask: np.ndarray) -> "Factor":
        """Drop all edges incident to vertices where ``keep_mask`` is False."""
        keep_mask = np.asarray(keep_mask, dtype=bool)
        if keep_mask.shape != (self.n_vertices,):
            raise ShapeError("keep_mask must have one entry per vertex")
        neigh = self.neighbors.copy()
        neigh[~keep_mask] = NO_PARTNER
        valid = neigh != NO_PARTNER
        dropped = valid & ~keep_mask[np.where(valid, neigh, 0)]
        neigh[dropped] = NO_PARTNER
        return Factor(neigh)

    # -- constructors -----------------------------------------------------
    @staticmethod
    def empty(n_vertices: int, n: int) -> "Factor":
        return Factor(np.full((n_vertices, n), NO_PARTNER, dtype=INDEX_DTYPE))

    @staticmethod
    def from_edge_list(n_vertices: int, n: int, u, v) -> "Factor":
        """Build a factor from undirected edges; raises if a degree exceeds n."""
        u = np.asarray(u, dtype=INDEX_DTYPE)
        v = np.asarray(v, dtype=INDEX_DTYPE)
        neigh = np.full((n_vertices, n), NO_PARTNER, dtype=INDEX_DTYPE)
        deg = np.zeros(n_vertices, dtype=INDEX_DTYPE)
        for a, b in zip(u.tolist(), v.tolist()):
            if a == b:
                raise FactorError(f"self-loop at vertex {a}")
            if deg[a] >= n or deg[b] >= n:
                raise FactorError(f"edge ({a},{b}) exceeds the degree bound {n}")
            neigh[a, deg[a]] = b
            neigh[b, deg[b]] = a
            deg[a] += 1
            deg[b] += 1
        return Factor(neigh)

    # -- validation -----------------------------------------------------
    def validate(self, graph=None) -> None:
        """Check all factor invariants; raises :class:`FactorError`.

        With ``graph`` (a prepared :class:`~repro.sparse.csr.CSRMatrix`) also
        checks condition 2 of the paper: every factor edge exists in the
        graph.
        """
        neigh = self.neighbors
        n_vertices, n = neigh.shape
        valid = neigh != NO_PARTNER
        ids = np.arange(n_vertices, dtype=INDEX_DTYPE)[:, None]
        if bool(((neigh < NO_PARTNER) | (neigh >= n_vertices)).any()):
            raise FactorError("partner id out of range")
        if bool((valid & (neigh == ids)).any()):
            raise FactorError("self-loop in factor")
        # no duplicate partners within a row
        sorted_rows = np.sort(np.where(valid, neigh, np.iinfo(INDEX_DTYPE).max), axis=1)
        if n > 1 and bool(
            ((sorted_rows[:, 1:] == sorted_rows[:, :-1]) & (sorted_rows[:, 1:] != np.iinfo(INDEX_DTYPE).max)).any()
        ):
            raise FactorError("duplicate partner in factor row")
        # mutuality
        rows = np.repeat(ids.ravel(), n)[valid.ravel()]
        cols = neigh.ravel()[valid.ravel()]
        mutual = (neigh[cols] == rows[:, None]).any(axis=1)
        if not bool(mutual.all()):
            bad = rows[~mutual][0], cols[~mutual][0]
            raise FactorError(f"non-mutual factor entry {bad}")
        if graph is not None:
            present = graph.contains(rows, cols)
            if not bool(present.all()):
                bad = rows[~present][0], cols[~present][0]
                raise FactorError(f"factor edge {bad} does not exist in the graph")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Factor):
            return NotImplemented
        if self.neighbors.shape != other.neighbors.shape:
            return False
        # compare as sets per row (slot order is not semantic)
        return bool(
            np.array_equal(np.sort(self.neighbors, axis=1), np.sort(other.neighbors, axis=1))
        )

    def __hash__(self) -> int:  # pragma: no cover - dataclass requirement
        return hash((self.neighbors.shape, self.neighbors.tobytes()))
