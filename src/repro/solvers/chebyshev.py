"""Chebyshev semi-iteration (polynomial acceleration without inner products).

A natural companion to the CG-Lanczos estimator
(:mod:`repro.solvers.lanczos`): given eigenvalue bounds ``[lo, hi]`` of the
(preconditioned) SPD operator, the Chebyshev iteration converges like CG but
needs *no dot products* — on a GPU that removes every global synchronisation
from the solve, which is why Chebyshev smoothing/acceleration is standard in
GPU multigrid stacks (cf. the AMGX line of work the paper's authors
co-published).

Also usable as a smoother: :class:`ChebyshevSmoother` targets the upper part
of the spectrum ``[hi/ratio, hi]`` like the classical AMG Chebyshev
smoother.
"""

from __future__ import annotations

import numpy as np

from ..errors import SolverError
from ..sparse.csr import CSRMatrix
from .lanczos import estimate_condition
from .monitor import BiCGStabResult, _krylov_run
from .preconditioners import JacobiPrecond

__all__ = ["ChebyshevSmoother", "chebyshev"]


def _chebyshev_steps(a, x, r, lo: float, hi: float, apply_m, count: int):
    """Yield ``(x, r)`` after each of ``count`` steps of the preconditioned
    Chebyshev iteration on ``[lo, hi]`` (Saad, *Iterative Methods*,
    Alg. 12.1) from iterate ``x`` with residual ``r``."""
    theta = (hi + lo) / 2.0
    delta = (hi - lo) / 2.0 if hi > lo else theta / 2.0
    sigma1 = theta / delta
    rho = 1.0 / sigma1
    d = apply_m(r) / theta
    for step in range(count):
        if step:  # the next direction, only when another step follows
            rho_new = 1.0 / (2.0 * sigma1 - rho)
            d = rho_new * rho * d + (2.0 * rho_new / delta) * apply_m(r)
            rho = rho_new
        x = x + d
        r = r - a.matvec(d)
        yield x, r


def chebyshev(
    a,
    b: np.ndarray,
    *,
    eig_bounds: tuple[float, float] | None = None,
    preconditioner=None,
    x0: np.ndarray | None = None,
    tol: float = 1e-8,
    max_iterations: int = 1000,
    true_solution: np.ndarray | None = None,
) -> BiCGStabResult:
    """Solve SPD ``A x = b`` with the (preconditioned) Chebyshev iteration.

    ``eig_bounds`` are the smallest/largest eigenvalues of ``M⁻¹A``; when
    omitted they are estimated with a short CG-Lanczos run and widened by
    10 % for safety.  The three-term recurrence follows Saad, *Iterative
    Methods*, Alg. 12.1.
    """
    with _krylov_run(
        "chebyshev", b, preconditioner=preconditioner, x0=x0, tol=tol,
        max_iterations=max_iterations, true_solution=true_solution,
    ) as run:
        if eig_bounds is None:
            est = estimate_condition(
                a, preconditioner=preconditioner, n_iterations=30, n=run.b.size
            )
            lo, hi = 0.9 * est.eig_min, 1.1 * est.eig_max
        else:
            lo, hi = eig_bounds
        if not (0.0 < lo <= hi):
            raise SolverError(f"invalid eigenvalue bounds ({lo}, {hi})")
        return run.drive(
            a, lambda x, r: _chebyshev_steps(a, x, r, lo, hi, run.apply_m, max_iterations)
        )


class ChebyshevSmoother:
    """AMG-style Chebyshev smoother targeting ``[hi/30, hi]``.

    ``hi`` is estimated from a few Lanczos iterations on ``D⁻¹A`` (the
    diagonally preconditioned operator, the standard choice).  Each sweep
    applies a degree-``degree`` Chebyshev polynomial in ``D⁻¹A``: that many
    steps of the solver's recurrence, preconditioned by
    :class:`~repro.solvers.JacobiPrecond`.
    """

    def __init__(self, a: CSRMatrix, *, degree: int = 3):
        self._jacobi = JacobiPrecond(a)
        self.a = a
        self.degree = int(degree)
        est = estimate_condition(a, preconditioner=self._jacobi, n_iterations=12)
        self.hi = 1.1 * est.eig_max
        self.lo = self.hi / 30.0

    def smooth(self, x: np.ndarray, b: np.ndarray, *, sweeps: int = 1) -> np.ndarray:
        for _ in range(sweeps):
            r = b - self.a.matvec(x)
            for x, _ in _chebyshev_steps(
                self.a, x, r, self.lo, self.hi, self._jacobi.apply, self.degree
            ):
                pass
        return x
