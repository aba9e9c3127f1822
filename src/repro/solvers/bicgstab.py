"""Preconditioned BiCGStab (van der Vorst; Saad, *Iterative Methods*, §7.4.2).

The outer Krylov solver of the paper's Section 6 experiments (there: MAGMA's
implementation).  The preconditioner is applied in the usual flexible-right
fashion — ``p̂ = M⁻¹p`` and ``ŝ = M⁻¹s`` — two applications per iteration.
Residual norms are recorded relative to ‖b‖, and the forward relative error
against an optional known true solution, matching the two panels of Figure 4.
"""

from __future__ import annotations

import numpy as np

from .._validation import VALUE_DTYPE
from .monitor import _BREAKDOWN_EPS, BiCGStabResult, _krylov_run

__all__ = ["BiCGStabResult", "bicgstab"]


def bicgstab(
    a,
    b: np.ndarray,
    *,
    preconditioner=None,
    x0: np.ndarray | None = None,
    tol: float = 1e-8,
    max_iterations: int = 1000,
    true_solution: np.ndarray | None = None,
) -> BiCGStabResult:
    """Solve ``A x = b`` with preconditioned BiCGStab.

    Parameters
    ----------
    a:
        Any object with a ``matvec(x) -> y`` method (e.g.
        :class:`~repro.sparse.csr.CSRMatrix`).
    preconditioner:
        Object with ``apply(r) -> z`` approximating ``A⁻¹r``; identity when
        omitted.
    true_solution:
        When given, the forward relative error is recorded per iteration.

    Convergence is declared when ‖r‖/‖b‖ < ``tol``; on numerical breakdown
    (ρ or ω collapsing) the solve stops early with
    ``history.breakdown`` set.
    """
    with _krylov_run(
        "bicgstab", b, preconditioner=preconditioner, x0=x0, tol=tol,
        max_iterations=max_iterations, true_solution=true_solution,
    ) as run:

        def steps(x, r):
            history = run.history
            r0 = r.copy()
            rho_old = alpha = omega = 1.0
            v = np.zeros(r.size, dtype=VALUE_DTYPE)
            p = np.zeros(r.size, dtype=VALUE_DTYPE)
            for _ in range(max_iterations):
                rho = float(r0 @ r)
                if abs(rho) < _BREAKDOWN_EPS:
                    history.breakdown = "rho"
                    return
                beta = (rho / rho_old) * (alpha / omega)
                p = r + beta * (p - omega * v)
                p_hat = run.apply_m(p)
                v = a.matvec(p_hat)
                denom = float(r0 @ v)
                if abs(denom) < _BREAKDOWN_EPS:
                    history.breakdown = "r0.v"
                    return
                alpha = rho / denom
                s = r - alpha * v
                if run.relative(s) < tol:
                    yield x + alpha * p_hat, s
                    return
                s_hat = run.apply_m(s)
                t = a.matvec(s_hat)
                tt = float(t @ t)
                if tt < _BREAKDOWN_EPS:
                    history.breakdown = "t.t"
                    return
                omega = float(t @ s) / tt
                x = x + alpha * p_hat + omega * s_hat
                r = s - omega * t
                yield x, r
                if abs(omega) < _BREAKDOWN_EPS:
                    history.breakdown = "omega"
                    return
                rho_old = rho

        return run.drive(a, steps)
