"""Preconditioned conjugate gradients (for SPD systems).

A companion to :func:`repro.solvers.bicgstab`: most of the paper's test
matrices are symmetric positive definite, where CG is the canonical outer
solver for the tridiagonal and AMG preconditioners.  The preconditioner must
be symmetric positive definite itself for the theory to hold; the algebraic
tridiagonal preconditioners of symmetric inputs are.
"""

from __future__ import annotations

import numpy as np

from .monitor import _BREAKDOWN_EPS, BiCGStabResult, _krylov_run

__all__ = ["cg"]


def cg(
    a,
    b: np.ndarray,
    *,
    preconditioner=None,
    x0: np.ndarray | None = None,
    tol: float = 1e-8,
    max_iterations: int = 1000,
    true_solution: np.ndarray | None = None,
) -> BiCGStabResult:
    """Solve SPD ``A x = b`` with preconditioned CG.

    Returns the same result type as :func:`repro.solvers.bicgstab` (solution
    plus :class:`~repro.solvers.monitor.ConvergenceHistory`).
    """
    with _krylov_run(
        "cg", b, preconditioner=preconditioner, x0=x0, tol=tol,
        max_iterations=max_iterations, true_solution=true_solution,
    ) as run:

        def steps(x, r):
            z = run.apply_m(r)
            p = z.copy()
            rz = float(r @ z)
            for _ in range(max_iterations):
                ap = a.matvec(p)
                denom = float(p @ ap)
                if abs(denom) < _BREAKDOWN_EPS:
                    run.history.breakdown = "p.Ap"
                    return
                alpha = rz / denom
                x = x + alpha * p
                r = r - alpha * ap
                yield x, r
                z = run.apply_m(r)
                rz_new = float(r @ z)
                if abs(rz) < _BREAKDOWN_EPS:
                    run.history.breakdown = "r.z"
                    return
                p = z + (rz_new / rz) * p
                rz = rz_new

        return run.drive(a, steps)
