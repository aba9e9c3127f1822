"""Random graph/forest generators with ground truth, for tests.

These exist so that the unit and property tests can verify the parallel
algorithms against *constructed* answers: a random linear forest knows its
path decomposition, a random [0,2]-factor knows which vertices lie on
cycles, and a random SPD system knows its solution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import INDEX_DTYPE, VALUE_DTYPE
from ..core.structures import NO_PARTNER, Factor
from ..sparse.build import from_edges
from ..sparse.csr import CSRMatrix

__all__ = [
    "GroundTruthFactor",
    "random_02_factor",
    "random_linear_forest",
    "random_spd_system",
    "random_weighted_graph",
]


def random_weighted_graph(n: int, n_edges: int, rng: np.random.Generator) -> CSRMatrix:
    """A random simple undirected weighted graph (duplicates collapse).

    Weights are uniform on [0.1, 1.0).
    """
    u = rng.integers(0, n, n_edges)
    v = rng.integers(0, n, n_edges)
    keep = u != v
    w = rng.uniform(0.1, 1.0, int(keep.sum()))
    return from_edges(n, u[keep], v[keep], w)


@dataclass(frozen=True)
class GroundTruthFactor:
    """A [0,2]-factor with its known decomposition.

    ``paths`` and ``cycles`` are vertex sequences; for paths the sequence
    runs from one end to the other, for cycles it closes implicitly.
    ``expected_path_id``/``expected_position`` follow the paper's convention
    (path id = minimum end id; position 1 at that end) and are only
    meaningful for the path part.
    """

    factor: Factor
    paths: list[list[int]]
    cycles: list[list[int]]
    expected_path_id: np.ndarray
    expected_position: np.ndarray

    @property
    def cycle_mask(self) -> np.ndarray:
        mask = np.zeros(self.factor.n_vertices, dtype=bool)
        for cyc in self.cycles:
            mask[cyc] = True
        return mask


def _chunk(vertices: np.ndarray, rng: np.random.Generator, max_len: int) -> list[np.ndarray]:
    """Split a vertex pool into random consecutive chunks."""
    chunks: list[np.ndarray] = []
    pos = 0
    while pos < vertices.size:
        length = int(rng.integers(1, max_len + 1))
        chunks.append(vertices[pos : pos + length])
        pos += length
    return chunks


def _build_ground_truth(
    n: int, paths: list[list[int]], cycles: list[list[int]]
) -> GroundTruthFactor:
    neighbors = np.full((n, 2), NO_PARTNER, dtype=INDEX_DTYPE)
    degree = np.zeros(n, dtype=INDEX_DTYPE)

    def link(a: int, b: int) -> None:
        neighbors[a, degree[a]] = b
        neighbors[b, degree[b]] = a
        degree[a] += 1
        degree[b] += 1

    for path in paths:
        for a, b in zip(path, path[1:]):
            link(a, b)
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:]):
            link(a, b)
        link(cyc[-1], cyc[0])

    path_id = np.full(n, -1, dtype=INDEX_DTYPE)
    position = np.zeros(n, dtype=INDEX_DTYPE)
    for path in paths:
        ordered = path if path[0] <= path[-1] else path[::-1]
        pid = ordered[0]
        for pos, vtx in enumerate(ordered, start=1):
            path_id[vtx] = pid
            position[vtx] = pos
    return GroundTruthFactor(
        factor=Factor(neighbors),
        paths=paths,
        cycles=cycles,
        expected_path_id=path_id,
        expected_position=position,
    )


def random_linear_forest(
    n: int,
    rng: np.random.Generator,
    *,
    max_path_len: int | None = None,
) -> GroundTruthFactor:
    """A random linear forest on ``n`` vertices covering all of them."""
    max_path_len = max_path_len or max(1, n)
    vertices = rng.permutation(n).astype(INDEX_DTYPE)
    paths = [list(map(int, c)) for c in _chunk(vertices, rng, max_path_len)]
    return _build_ground_truth(n, paths, [])


def random_02_factor(
    n: int,
    rng: np.random.Generator,
    *,
    cycle_fraction: float = 0.4,
) -> GroundTruthFactor:
    """A random [0,2]-factor mixing paths and cycles (cycles need ≥ 3).

    No component is longer than ``max(3, n // 3)`` vertices.
    """
    max_component = max(3, n // 3)
    vertices = rng.permutation(n).astype(INDEX_DTYPE)
    paths: list[list[int]] = []
    cycles: list[list[int]] = []
    for chunk in _chunk(vertices, rng, max_component):
        members = list(map(int, chunk))
        if len(members) >= 3 and rng.random() < cycle_fraction:
            cycles.append(members)
        else:
            paths.append(members)
    return _build_ground_truth(n, paths, cycles)


def random_spd_system(
    n: int, rng: np.random.Generator
) -> tuple[CSRMatrix, np.ndarray, np.ndarray]:
    """A random diagonally dominant SPD matrix, a solution, and its rhs.

    The off-diagonal pattern comes from 3n random edge draws.
    """
    u = rng.integers(0, n, 3 * n)
    v = rng.integers(0, n, 3 * n)
    keep = u != v
    u, v = u[keep], v[keep]
    w = -rng.uniform(0.1, 1.0, u.size)
    a_off = from_edges(n, u, v, w)
    row_abs = np.zeros(n, dtype=VALUE_DTYPE)
    np.add.at(row_abs, a_off.nnz_rows, np.abs(a_off.data))
    diag = row_abs + rng.uniform(0.5, 1.5, n)
    a = from_edges(n, a_off.to_coo().row, a_off.to_coo().col, a_off.to_coo().val,
                   symmetric=False, diagonal=diag)
    x_true = rng.standard_normal(n)
    b = a.matvec(x_true)
    return a, x_true, b
