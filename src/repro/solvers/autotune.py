"""Automatic charging-parameter control for (nested) factor computations.

Section 6 of the paper observes that the best (m, k_m) differs between the
fine [0,1]-factor and the coarse [0,2]-factor of the block preconditioner
(ANISO/ATMOSMODM prefer m = 1, AF_SHELL8/ECOLOGY prefer m = 5) and concludes
*"automatic parameter control in nested factor computations is beyond the
scope of this paper"*.  This module supplies that control as the natural
extension: grid-search the charging schedules per factor computation and
keep the configuration with the highest weight coverage.

The search cost is a handful of extra factor computations — cheap relative
to the Krylov solve the preconditioner accelerates.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.coverage import coverage as coverage_of
from ..core.factor import ParallelFactorConfig, parallel_factor
from ..sparse.build import prepare_graph
from ..sparse.csr import CSRMatrix
from .preconditioners import AlgTriBlockPrecond, AlgTriScalPrecond

__all__ = ["AutoTuneResult", "auto_block_preconditioner", "tune_factor_config"]

#: The (m, k_m) charging schedules the search evaluates — the three
#: configurations of the paper's Table 4 plus a later un-charged slot.  Every
#: trial runs M = 5 rounds with p = 0.5 and charge seed 0.
DEFAULT_SCHEDULES: tuple[tuple[int, int], ...] = ((1, 0), (5, 0), (5, 1), (3, 0))


@dataclass(frozen=True)
class AutoTuneResult:
    """Outcome of a configuration search."""

    config: ParallelFactorConfig
    coverage: float
    trials: dict[tuple[int, int], float]


def tune_factor_config(
    a: CSRMatrix, n: int, *, graph: CSRMatrix | None = None
) -> AutoTuneResult:
    """Pick the (m, k_m) schedule maximising c_π for one factor computation.

    ``a`` is the original matrix (coverage reference); ``graph`` may supply a
    pre-prepared adjacency to avoid recomputation.
    """
    graph = graph if graph is not None else prepare_graph(a)
    trials: dict[tuple[int, int], float] = {}
    best: tuple[float, tuple[int, int]] | None = None
    for m, k_m in DEFAULT_SCHEDULES:
        config = ParallelFactorConfig(n=n, m=m, k_m=k_m)
        res = parallel_factor(graph, config)
        c = coverage_of(a, res.factor)
        trials[(m, k_m)] = c
        if best is None or c > best[0]:
            best = (c, (m, k_m))
    assert best is not None
    m, k_m = best[1]
    return AutoTuneResult(
        config=ParallelFactorConfig(n=n, m=m, k_m=k_m),
        coverage=best[0],
        trials=trials,
    )


def auto_block_preconditioner(a: CSRMatrix, *, include_scalar: bool = True):
    """Build the best algebraic preconditioner under automatic control.

    Tunes the block preconditioner's shared (m, k_m) schedule by final block
    coverage and — when ``include_scalar`` — also considers the tuned scalar
    preconditioner, returning whichever captures more weight.  This resolves
    the paper's observation that no single schedule wins on all matrices.
    """
    candidates = []
    for m, k_m in DEFAULT_SCHEDULES:
        precond = AlgTriBlockPrecond(a, ParallelFactorConfig(n=1, m=m, k_m=k_m))
        candidates.append((precond.coverage, f"block(m={m},k_m={k_m})", precond))
    if include_scalar:
        tuned = tune_factor_config(a, 2)
        precond = AlgTriScalPrecond(a, tuned.config)
        candidates.append(
            (precond.coverage, f"scalar(m={tuned.config.m},k_m={tuned.config.k_m})", precond)
        )
    candidates.sort(key=lambda t: t[0], reverse=True)
    best_coverage, label, precond = candidates[0]
    precond.tuning_label = label  # type: ignore[attr-defined]
    precond.tuning_candidates = [(c, l) for c, l, _ in candidates]  # type: ignore[attr-defined]
    return precond
