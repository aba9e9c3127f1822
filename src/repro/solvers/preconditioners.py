"""The preconditioners of the Figure 4 comparison (Section 6).

* :class:`JacobiPrecond` — diagonal scaling (MAGMA's Jacobi in the paper).
* :class:`TriScalPrecond` — the tridiagonal part of A in the *original*
  vertex order; captures only the weight ``c_id`` (Eq. 5).
* :class:`AlgTriScalPrecond` — the paper's contribution: the tridiagonal
  system extracted algebraically from a [0,2]-factor linear forest, solved in
  the permuted space.
* :class:`AlgTriBlockPrecond` — the 2×2 block variant: a [0,1]-factor
  coarsens the graph, a [0,2]-factor on the coarse graph orders the pairs,
  and unmatched vertices receive an uncoupled ghost equation so the block
  structure stays uniform.
* :class:`AlgTriMultiBlockPrecond` — the same construction with ``depth``
  matchings and ``2^depth × 2^depth`` blocks; ``AlgTriBlockPrecond`` is its
  depth 1.

Every preconditioner exposes ``apply(r) ≈ A⁻¹ r``, a ``coverage`` attribute
(the weight fraction of A it captures — the quantity Tables 4/5 correlate
with convergence) and a ``name`` for reporting.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .._validation import INDEX_DTYPE, VALUE_DTYPE, check_square
from ..core.coverage import graph_weight, identity_coverage
from ..core.cycles import break_cycles
from ..core.factor import ParallelFactorConfig, parallel_factor
from ..core.paths import identify_paths
from ..core.permutation import forest_permutation
from ..core.pipeline import extract_linear_forest
from ..errors import ShapeError, SolverError
from ..sparse.build import prepare_graph
from ..sparse.csr import CSRMatrix
from .block_tridiag import BlockTridiagonalSystem
from .coarsen import GHOST, coarsen_by_matching
from .tridiag import pcr_solve

__all__ = [
    "AlgTriBlockPrecond",
    "AlgTriMultiBlockPrecond",
    "AlgTriScalPrecond",
    "IdentityPrecond",
    "JacobiPrecond",
    "Preconditioner",
    "TriScalPrecond",
]


class Preconditioner:
    """Base class: ``apply(r)`` returns ``M⁻¹ r``."""

    name: str = "identity"
    coverage: float = 0.0

    def apply(self, r: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError


class IdentityPrecond(Preconditioner):
    """No preconditioning (useful as a baseline in tests)."""

    name = "none"

    def __init__(self, a: CSRMatrix | None = None):
        del a

    def apply(self, r: np.ndarray) -> np.ndarray:
        return r


class JacobiPrecond(Preconditioner):
    """Diagonal scaling ``z = r / diag(A)``."""

    name = "Jacobi"

    def __init__(self, a: CSRMatrix):
        check_square(a.shape)
        diag = a.diagonal()
        if bool((diag == 0.0).any()):
            raise SolverError("Jacobi preconditioner requires a zero-free diagonal")
        self._inv_diag = 1.0 / diag
        self.coverage = 0.0

    def apply(self, r: np.ndarray) -> np.ndarray:
        return r * self._inv_diag


class TriScalPrecond(Preconditioner):
    """Tridiagonal part of A in the original vertex order."""

    name = "TriScalPrecond"

    def __init__(self, a: CSRMatrix):
        n = check_square(a.shape)
        i = np.arange(n, dtype=INDEX_DTYPE)
        dl = np.zeros(n, dtype=VALUE_DTYPE)
        du = np.zeros(n, dtype=VALUE_DTYPE)
        if n > 1:
            dl[1:] = a.gather(i[1:], i[1:] - 1)
            du[:-1] = a.gather(i[:-1], i[:-1] + 1)
        self._dl, self._d, self._du = dl, a.diagonal(), du
        self.coverage = identity_coverage(a)

    def apply(self, r: np.ndarray) -> np.ndarray:
        return pcr_solve(self._dl, self._d, self._du, r)


class AlgTriScalPrecond(Preconditioner):
    """Algebraic scalar tridiagonal preconditioner (the paper's Section 6).

    Setup = the full linear-forest pipeline: [0,2]-factor, cycle breaking,
    path identification, permutation, coefficient extraction.  Application
    permutes the residual, solves the tridiagonal system, and permutes back.
    """

    name = "AlgTriScalPrecond"

    def __init__(self, a: CSRMatrix, config: ParallelFactorConfig | None = None):
        check_square(a.shape)
        result = extract_linear_forest(a, config or ParallelFactorConfig(n=2))
        self.result = result
        self._perm = result.perm
        self._tri = result.tridiagonal
        self.coverage = result.coverage

    def apply(self, r: np.ndarray) -> np.ndarray:
        rp = r[self._perm]
        zp = self._tri.solve(rp)
        z = np.empty_like(zp)
        z[self._perm] = zp
        return z


class AlgTriBlockPrecond(Preconditioner):
    """Algebraic 2×2 block tridiagonal preconditioner (Section 6).

    Construction: a parallel [0,1]-factor matches vertex pairs; the matched
    graph is coarsened (:func:`repro.solvers.coarsen.coarsen_by_matching`);
    a [0,2]-factor plus linear-forest extraction orders the coarse vertices;
    each coarse vertex contributes one 2×2 block row.  *"For vertices without
    a match in the [0,1]-factor, we add an uncoupled ghost equation by
    setting the diagonal and right-hand side value in the corresponding
    additional row to one."*

    This is the block construction at depth 1;
    :class:`AlgTriMultiBlockPrecond` repeats the matching ``depth`` times.
    ``matching``, ``coarse``, ``coarse_forest``, ``coarse_paths`` and
    ``coarse_perm`` describe the last coarsening and the coarse forest.
    """

    name = "AlgTriBlockPrecond"

    def __init__(self, a: CSRMatrix, config: ParallelFactorConfig | None = None):
        self._build(a, 1, config)

    def _build(self, a: CSRMatrix, depth: int, config) -> None:
        n = check_square(a.shape)
        base = config or ParallelFactorConfig()
        # members[c]: the fine vertices of coarse vertex c, GHOST-padded to
        # the aggregate width, which doubles with every matching
        graph = prepare_graph(a)
        members = np.arange(n, dtype=INDEX_DTYPE)[:, None]
        for _ in range(depth):
            matching = parallel_factor(graph, replace(base, n=1)).factor
            coarse = coarsen_by_matching(graph, matching)
            first, second = coarse.aggregates[:, 0], coarse.aggregates[:, 1]
            width = members.shape[1]
            merged = np.full((coarse.n_coarse, 2 * width), GHOST, dtype=INDEX_DTYPE)
            merged[:, :width] = members[first]
            paired = second != GHOST
            merged[paired, width:] = members[second[paired]]
            members, graph = merged, coarse.graph

        # order the coarse vertices along a coarse linear forest
        coarse_factor = parallel_factor(graph, replace(base, n=2)).factor
        broken = break_cycles(coarse_factor, graph)
        paths = identify_paths(broken.forest)
        perm = forest_permutation(paths)

        self.matching = matching
        self.coarse = coarse
        self.coarse_forest = broken.forest
        self.coarse_paths = paths
        self.coarse_perm = perm
        self._n_fine = n
        # ordered fine slots: block row k holds the members of coarse vertex
        # perm[k]; consecutive rows couple when they lie on one path
        slots = members[perm]
        self._slots = slots
        ordered_path_id = paths.path_id[perm]
        coupled = np.zeros(slots.shape[0], dtype=bool)
        coupled[1:] = ordered_path_id[1:] == ordered_path_id[:-1]
        self._system = _extract_blocks(a, slots, coupled)
        self.coverage = _block_coverage(a, slots, coupled)

    @property
    def system(self) -> BlockTridiagonalSystem:
        return self._system

    def apply(self, r: np.ndarray) -> np.ndarray:
        slots = self._slots
        rhs = np.zeros(slots.shape, dtype=VALUE_DTYPE)
        valid = slots != GHOST
        rhs[valid] = np.asarray(r, dtype=VALUE_DTYPE)[slots[valid]]
        x = self._system.solve(rhs.reshape(-1)).reshape(slots.shape)
        z = np.zeros(self._n_fine, dtype=VALUE_DTYPE)
        z[slots[valid]] = x[valid]
        return z


class AlgTriMultiBlockPrecond(AlgTriBlockPrecond):
    """Algebraic block tridiagonal preconditioner with 2^depth blocks.

    Section 6 hints at the general construction ("recursive [0,n]-factor
    computations on the coarser graphs"): ``depth`` successive parallel
    matchings aggregate up to ``2^depth`` fine vertices per coarse vertex,
    and the extracted system has ``2^depth × 2^depth`` ghost-padded blocks,
    solved with the generalized block PCR.  ``depth = 1`` is
    :class:`AlgTriBlockPrecond`.  Larger blocks capture more weight per
    block row at cubically growing block-solve cost.
    """

    def __init__(self, a: CSRMatrix, *, depth: int = 2):
        if depth < 1:
            raise ShapeError(f"depth must be >= 1, got {depth}")
        self.name = f"AlgTriMultiBlockPrecond(depth={depth})"
        self.depth = depth
        self._build(a, depth, None)

    @property
    def block_size(self) -> int:
        return self._system.block_size


#: The preconditioners by the name that ``repro solve --preconditioner`` and
#: the serve ``solve`` config choose them by.
_PRECONDITIONERS = {
    "none": IdentityPrecond,
    "jacobi": JacobiPrecond,
    "triscal": TriScalPrecond,
    "algtriscal": AlgTriScalPrecond,
    "algtriblock": AlgTriBlockPrecond,
}


def _build_preconditioner(
    name: str, a: CSRMatrix, config: ParallelFactorConfig
) -> Preconditioner:
    """The preconditioner ``name`` of ``a``, as ``repro solve`` and the
    serve ``solve`` op build it: the two that extract a linear forest run
    Algorithm 2 with the request's ``config``."""
    cls = _PRECONDITIONERS[name]
    if cls in (AlgTriScalPrecond, AlgTriBlockPrecond):
        return cls(a, config)
    return cls(a)


def _paper_solution(n: int) -> np.ndarray:
    """The paper's test solution ``x_t[i] = sin(16πi/N)``."""
    return np.sin(16.0 * np.pi * np.arange(n) / n)


def _gather_safe(a: CSRMatrix, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """A[rows, cols] with GHOST (-1) indices yielding 0."""
    ghost = (rows == GHOST) | (cols == GHOST)
    out = a.gather(np.where(ghost, 0, rows), np.where(ghost, 0, cols))
    out[ghost] = 0.0
    return out


def _extract_blocks(
    a: CSRMatrix, slots: np.ndarray, coupled: np.ndarray
) -> BlockTridiagonalSystem:
    k, block = slots.shape
    diag = np.zeros((k, block, block), dtype=VALUE_DTYPE)
    sub = np.zeros_like(diag)
    sup = np.zeros_like(diag)
    for r in range(block):
        for c in range(block):
            diag[:, r, c] = _gather_safe(a, slots[:, r], slots[:, c])
            if k > 1:
                vals = _gather_safe(a, slots[1:, r], slots[:-1, c])
                sub[1:, r, c] = np.where(coupled[1:], vals, 0.0)
                vals = _gather_safe(a, slots[:-1, r], slots[1:, c])
                sup[:-1, r, c] = np.where(coupled[1:], vals, 0.0)
    # ghost equations: decoupled unit diagonal
    ghost_rows, ghost_slots = np.nonzero(slots == GHOST)
    diag[ghost_rows, ghost_slots, ghost_slots] = 1.0
    return BlockTridiagonalSystem(sub=sub, diag=diag, sup=sup)


def _block_coverage(a: CSRMatrix, slots: np.ndarray, coupled: np.ndarray) -> float:
    """Weight fraction of A captured by the block tridiagonal pattern.

    Every coupling is gathered in one pass and summed once: the intra-block
    pairs (each unordered pair once), then the pairs between consecutive
    coupled block rows.
    """
    total = graph_weight(a)
    if total == 0.0:
        return 0.0
    block = slots.shape[1]
    idx = np.flatnonzero(coupled)
    pairs = [(slots[:, r], slots[:, c]) for r in range(block) for c in range(r + 1, block)]
    pairs += [(slots[idx - 1, c], slots[idx, r]) for r in range(block) for c in range(block)]
    u = np.concatenate([p for p, _ in pairs])
    v = np.concatenate([q for _, q in pairs])
    ok = (u != GHOST) & (v != GHOST)
    u, v = u[ok], v[ok]
    if u.size == 0:
        return 0.0
    w = (np.abs(a.gather(u, v)) + np.abs(a.gather(v, u))) / 2.0
    return float(w.sum()) / total
