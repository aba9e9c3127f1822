"""Directional graph coarsening with [0,1]-factors (AMG motivation).

*"Linear forests, which contain many strong edges, are also used for
directional coarsening in algebraic multigrid"* (paper, introduction).
:func:`directional_coarsening` builds a hierarchy of matched/aggregated
graphs; :func:`orientation_histogram` classifies matched pairs by grid
direction for structured problems, quantifying how well the matching tracks
the anisotropy (semicoarsening).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.factor import ParallelFactorConfig, parallel_factor
from ..solvers.coarsen import GHOST, CoarseGraph, coarsen_by_matching
from ..sparse.build import prepare_graph
from ..sparse.csr import CSRMatrix

__all__ = ["CoarseningLevel", "directional_coarsening", "orientation_histogram"]


@dataclass(frozen=True)
class CoarseningLevel:
    """One coarsening step: the graph it started from and its aggregation."""

    graph: CSRMatrix
    coarse: CoarseGraph

    @property
    def n_fine(self) -> int:
        return self.graph.n_rows

    @property
    def n_coarse(self) -> int:
        return self.coarse.n_coarse

    @property
    def coarsening_ratio(self) -> float:
        return self.n_coarse / max(self.n_fine, 1)

    @property
    def matched_fraction(self) -> float:
        """Fraction of fine vertices inside a matched pair."""
        singles = int(self.coarse.singleton_mask.sum())
        return (self.n_fine - singles) / max(self.n_fine, 1)


def directional_coarsening(a: CSRMatrix, *, levels: int = 3) -> list[CoarseningLevel]:
    """Repeatedly match-and-aggregate along the strongest couplings.

    Each level's matching is a [0,1]-factor with M = 8, m = 5 and k_m = 0.
    """
    config = ParallelFactorConfig(n=1, max_iterations=8, m=5, k_m=0)
    out: list[CoarseningLevel] = []
    graph = prepare_graph(a)
    for _ in range(levels):
        if graph.nnz == 0 or graph.n_rows <= 2:
            break
        matching = parallel_factor(graph, config).factor
        coarse = coarsen_by_matching(graph, matching)
        out.append(CoarseningLevel(graph=graph, coarse=coarse))
        if coarse.n_coarse >= graph.n_rows:
            break
        graph = coarse.graph
    return out


def orientation_histogram(coarse: CoarseGraph, grid: int) -> dict[str, int]:
    """Classify matched pairs of a 2-D row-major grid by direction."""
    counts = {"horizontal": 0, "vertical": 0, "diagonal": 0, "singleton": 0}
    for u, v in coarse.aggregates:
        if v == GHOST:
            counts["singleton"] += 1
            continue
        yu, xu = divmod(int(u), grid)
        yv, xv = divmod(int(v), grid)
        if yu == yv:
            counts["horizontal"] += 1
        elif xu == xv:
            counts["vertical"] += 1
        else:
            counts["diagonal"] += 1
    return counts
