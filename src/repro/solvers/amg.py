"""Pairwise-aggregation algebraic multigrid built on [0,1]-factors.

The paper's introduction lists *"directional coarsening in algebraic
multigrid"* among the uses of factor computations with strong edges.  This
module realises that application: at every level a parallel [0,1]-factor
matches each vertex with its strongest available neighbour (following the
anisotropy), matched pairs are aggregated (piecewise-constant prolongation)
and the Galerkin operator ``A_c = P^T A P`` is formed with SpGEMM — the
classical pairwise-aggregation AMG with the paper's matching as the
coarsening engine.

The resulting :class:`MatchingAMGPrecond` is a V-cycle preconditioner
(weighted-Jacobi smoothing, dense coarsest solve) usable with
:func:`repro.solvers.bicgstab` or :func:`repro.solvers.cg`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import INDEX_DTYPE, VALUE_DTYPE
from ..core.factor import ParallelFactorConfig, parallel_factor
from ..errors import SolverError
from ..sparse.build import prepare_graph
from ..sparse.coo import COOMatrix
from ..sparse.csr import CSRMatrix
from ..sparse.spgemm import spgemm
from .coarsen import coarsen_by_matching
from .preconditioners import Preconditioner, _inverse_diagonal
from .smoothers import ColoredGaussSeidel, WeightedJacobi

__all__ = ["AMGLevel", "MatchingAMGPrecond", "build_hierarchy"]


def _aggregation_prolongation(fine_to_coarse: np.ndarray, n_coarse: int) -> CSRMatrix:
    """Piecewise-constant prolongation: P[i, aggregate(i)] = 1."""
    n_fine = fine_to_coarse.size
    return COOMatrix(
        row=np.arange(n_fine, dtype=INDEX_DTYPE),
        col=np.asarray(fine_to_coarse, dtype=INDEX_DTYPE),
        val=np.ones(n_fine, dtype=VALUE_DTYPE),
        shape=(n_fine, n_coarse),
    ).to_csr()


@dataclass
class AMGLevel:
    """One level of the hierarchy (finest first)."""

    a: CSRMatrix
    prolongation: CSRMatrix | None  # None on the coarsest level


def build_hierarchy(
    a: CSRMatrix, *, max_levels: int = 10, min_coarse: int = 40
) -> list[AMGLevel]:
    """Coarsen by parallel matchings until the operator is small.

    Each level's matching is a [0,1]-factor with M = 5, m = 5 and k_m = 0.
    Coarsening stops early when a matching no longer shrinks the graph
    (e.g. an edgeless level).
    """
    base = ParallelFactorConfig(n=1, max_iterations=5, m=5, k_m=0)
    levels: list[AMGLevel] = []
    current = a
    for _ in range(max_levels - 1):
        _inverse_diagonal(current, f"AMG level {len(levels)}")
        if current.n_rows <= min_coarse:
            break
        graph = prepare_graph(current)
        if graph.nnz == 0:
            break
        matching = parallel_factor(graph, base).factor
        if matching.edge_count == 0:
            break
        coarse = coarsen_by_matching(graph, matching)
        p = _aggregation_prolongation(coarse.fine_to_coarse, coarse.n_coarse)
        levels.append(AMGLevel(a=current, prolongation=p))
        current = spgemm(spgemm(p.transpose(), current), p)
    _inverse_diagonal(current, f"AMG level {len(levels)}")
    levels.append(AMGLevel(a=current, prolongation=None))
    return levels


class MatchingAMGPrecond(Preconditioner):
    """V-cycle preconditioner over the matching-aggregation hierarchy.

    Parameters
    ----------
    a:
        The system matrix (zero-free diagonal required).
    smoother:
        ``"jacobi"`` (default, damping 2/3) or ``"gauss-seidel"`` — the
        latter uses multicolor Gauss-Seidel over a Jones-Plassmann coloring
        (:mod:`repro.solvers.smoothers`), symmetrised (forward pre-sweep,
        backward post-sweep).  Either smooths once before and once after
        each coarse-grid correction.
    """

    name = "MatchingAMGPrecond"

    def __init__(self, a: CSRMatrix, *, smoother: str = "jacobi"):
        kinds = {"jacobi": WeightedJacobi, "gauss-seidel": ColoredGaussSeidel}
        if smoother not in kinds:
            raise SolverError(f"unknown smoother {smoother!r}")
        self.levels = build_hierarchy(a)
        self.smoother_kind = smoother
        self._smoothers = [kinds[smoother](lvl.a) for lvl in self.levels[:-1]]
        # symmetrised Gauss-Seidel: the post-sweep visits the colors backward
        self._post_sweep = {"reverse": True} if smoother == "gauss-seidel" else {}
        self._coarse_dense = self.levels[-1].a.to_dense()
        try:
            self._coarse_inv = np.linalg.inv(self._coarse_dense)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - pathological
            raise SolverError("coarsest AMG operator is singular") from exc
        # informational coverage: weight captured inside first-level aggregates
        self.coverage = self._first_level_coverage(a)

    def _first_level_coverage(self, a: CSRMatrix) -> float:
        from ..core.coverage import graph_weight

        total = graph_weight(a)
        if total == 0.0 or len(self.levels) < 2:
            return 0.0
        p = self.levels[0].prolongation
        assert p is not None
        agg = p.indices  # aggregate of every fine vertex
        coo = a.to_coo()
        off = coo.row != coo.col
        internal = off & (agg[coo.row] == agg[coo.col])
        return float(np.abs(coo.val[internal]).sum() / 2.0) / total

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    def operator_complexity(self) -> float:
        """Σ nnz(A_l) / nnz(A_0) — the standard AMG cost metric."""
        base = max(self.levels[0].a.nnz, 1)
        return sum(lvl.a.nnz for lvl in self.levels) / base

    # -- V-cycle ------------------------------------------------------------
    def _cycle(self, idx: int, b: np.ndarray) -> np.ndarray:
        level = self.levels[idx]
        if level.prolongation is None:
            return self._coarse_inv @ b
        smoother = self._smoothers[idx]
        x = smoother.smooth(np.zeros_like(b), b)
        residual = b - level.a.matvec(x)
        coarse_b = level.prolongation.transpose().matvec(residual)
        coarse_x = self._cycle(idx + 1, coarse_b)
        x = x + level.prolongation.matvec(coarse_x)
        return smoother.smooth(x, b, **self._post_sweep)

    def apply(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=VALUE_DTYPE)
        return self._cycle(0, r)
