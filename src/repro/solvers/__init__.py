"""Iterative-solver substrate for the preconditioning application (Section 6).

The paper plugs its algebraically constructed tridiagonal preconditioners
into a BiCGStab Krylov solver (MAGMA's implementation; ours follows Saad) and
solves the tridiagonal systems at the bandwidth limit of the GPU (their ICPP
2021 solver; ours is a vectorized parallel-cyclic-reduction solve).

* :mod:`~repro.solvers.tridiag` — Thomas (reference) and PCR (vectorized)
  scalar tridiagonal solvers.
* :mod:`~repro.solvers.block_tridiag` — 2×2 block tridiagonal solvers
  (block Thomas reference + vectorized block PCR).
* :mod:`~repro.solvers.bicgstab` — preconditioned BiCGStab with residual and
  forward-relative-error tracking (Figure 4).
* :mod:`~repro.solvers.coarsen` — [0,1]-factor graph coarsening for the 2×2
  block preconditioner.
* :mod:`~repro.solvers.preconditioners` — Jacobi, TriScalPrecond,
  AlgTriScalPrecond and the block construction: AlgTriBlockPrecond is its
  depth 1 (2×2 blocks), AlgTriMultiBlockPrecond any depth.
"""

from .amg import AMGLevel, MatchingAMGPrecond, build_hierarchy
from .autotune import AutoTuneResult, auto_block_preconditioner, tune_factor_config
from .bicgstab import BiCGStabResult, bicgstab
from .cg import cg
from .chebyshev import ChebyshevSmoother, chebyshev
from .lanczos import ConditionEstimate, estimate_condition
from .block_tridiag import BlockTridiagonalSystem, block_pcr_solve, block_thomas_solve
from .coarsen import CoarseGraph, coarsen_by_matching
from .monitor import ConvergenceHistory
from .smoothers import ColoredGaussSeidel, WeightedJacobi
from .preconditioners import (
    AlgTriBlockPrecond,
    AlgTriMultiBlockPrecond,
    AlgTriScalPrecond,
    IdentityPrecond,
    JacobiPrecond,
    Preconditioner,
    TriScalPrecond,
)
from .tridiag import pcr_solve, thomas_solve

__all__ = [
    "AMGLevel",
    "AlgTriBlockPrecond",
    "AlgTriMultiBlockPrecond",
    "AlgTriScalPrecond",
    "AutoTuneResult",
    "BiCGStabResult",
    "MatchingAMGPrecond",
    "BlockTridiagonalSystem",
    "ChebyshevSmoother",
    "CoarseGraph",
    "ColoredGaussSeidel",
    "ConditionEstimate",
    "ConvergenceHistory",
    "IdentityPrecond",
    "JacobiPrecond",
    "Preconditioner",
    "TriScalPrecond",
    "WeightedJacobi",
    "auto_block_preconditioner",
    "bicgstab",
    "build_hierarchy",
    "block_pcr_solve",
    "block_thomas_solve",
    "cg",
    "chebyshev",
    "coarsen_by_matching",
    "estimate_condition",
    "pcr_solve",
    "thomas_solve",
    "tune_factor_config",
]
