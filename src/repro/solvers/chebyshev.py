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

from .._validation import VALUE_DTYPE, check_square
from ..errors import ShapeError, SolverError
from ..sparse.csr import CSRMatrix
from .bicgstab import BiCGStabResult, _norm
from .lanczos import estimate_condition
from .monitor import ConvergenceHistory

__all__ = ["ChebyshevSmoother", "chebyshev"]


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
    b = np.asarray(b, dtype=VALUE_DTYPE)
    n = b.size
    x = np.zeros(n, dtype=VALUE_DTYPE) if x0 is None else np.array(x0, dtype=VALUE_DTYPE)
    if x.shape != b.shape:
        raise ShapeError("x0 must have the same shape as b")

    def apply_m(v):
        return v if preconditioner is None else preconditioner.apply(v)

    if eig_bounds is None:
        est = estimate_condition(a, preconditioner=preconditioner, n_iterations=30, n=n)
        lo, hi = 0.9 * est.eig_min, 1.1 * est.eig_max
    else:
        lo, hi = eig_bounds
    if not (0.0 < lo <= hi):
        raise SolverError(f"invalid eigenvalue bounds ({lo}, {hi})")

    theta = (hi + lo) / 2.0
    delta = (hi - lo) / 2.0 if hi > lo else theta / 2.0
    sigma1 = theta / delta

    history = ConvergenceHistory()
    b_norm = _norm(b) or 1.0
    xt_norm = None
    if true_solution is not None:
        true_solution = np.asarray(true_solution, dtype=VALUE_DTYPE)
        xt_norm = _norm(true_solution) or 1.0

    r = b - a.matvec(x)

    def record():
        rel = _norm(r) / b_norm
        history.relative_residuals.append(rel)
        if true_solution is not None:
            history.forward_errors.append(_norm(x - true_solution) / xt_norm)
        return rel

    if record() < tol:
        history.converged = True
        return BiCGStabResult(x=x, history=history)

    rho = 1.0 / sigma1
    d = apply_m(r) / theta
    for _ in range(max_iterations):
        x = x + d
        r = r - a.matvec(d)
        if record() < tol:
            history.converged = True
            break
        rho_new = 1.0 / (2.0 * sigma1 - rho)
        d = rho_new * rho * d + (2.0 * rho_new / delta) * apply_m(r)
        rho = rho_new
    return BiCGStabResult(x=x, history=history)


class ChebyshevSmoother:
    """AMG-style Chebyshev smoother targeting ``[hi/30, hi]``.

    ``hi`` is estimated from a few Lanczos iterations on ``D⁻¹A`` (the
    diagonally preconditioned operator, the standard choice).  Each sweep
    applies a degree-``degree`` Chebyshev polynomial in ``D⁻¹A``.
    """

    def __init__(self, a: CSRMatrix, *, degree: int = 3):
        check_square(a.shape)
        diag = a.diagonal()
        if bool((diag == 0.0).any()):
            raise SolverError("Chebyshev smoothing requires a zero-free diagonal")
        self.a = a
        self.degree = int(degree)
        self._inv_diag = 1.0 / diag

        class _Jac:
            def __init__(self, inv):
                self._inv = inv

            def apply(self, r):
                return r * self._inv

        est = estimate_condition(
            a, preconditioner=_Jac(self._inv_diag), n_iterations=12
        )
        self.hi = 1.1 * est.eig_max
        self.lo = self.hi / 30.0

    def smooth(self, x: np.ndarray, b: np.ndarray, *, sweeps: int = 1) -> np.ndarray:
        theta = (self.hi + self.lo) / 2.0
        delta = (self.hi - self.lo) / 2.0
        sigma1 = theta / delta
        for _ in range(sweeps):
            r = b - self.a.matvec(x)
            rho = 1.0 / sigma1
            d = self._inv_diag * r / theta
            for _ in range(self.degree):
                x = x + d
                r = r - self.a.matvec(d)
                rho_new = 1.0 / (2.0 * sigma1 - rho)
                d = rho_new * rho * d + (2.0 * rho_new / delta) * (self._inv_diag * r)
                rho = rho_new
        return x
