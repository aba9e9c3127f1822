"""Spectral condition estimates from the CG-Lanczos connection.

Figure 4's story is "higher weight coverage → faster convergence"; the
mechanism is the spectrum of the preconditioned operator.  This module makes
that measurable without forming M⁻¹A: the scalars of a preconditioned CG run
define a Lanczos tridiagonal matrix T whose extremal eigenvalues (Ritz
values) converge to the extremal eigenvalues of M⁻¹A, giving an effective
condition number estimate per preconditioner.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import VALUE_DTYPE
from ..errors import SolverError

__all__ = ["ConditionEstimate", "estimate_condition"]


@dataclass(frozen=True)
class ConditionEstimate:
    """Ritz-value summary of a preconditioned operator."""

    eig_min: float
    eig_max: float
    iterations: int

    @property
    def condition(self) -> float:
        if self.eig_min <= 0.0:
            return np.inf
        return self.eig_max / self.eig_min


def estimate_condition(
    a,
    *,
    preconditioner=None,
    n_iterations: int = 60,
    n: int | None = None,
) -> ConditionEstimate:
    """Estimate cond(M⁻¹A) for SPD ``A`` (and SPD ``M``) via CG-Lanczos.

    Runs preconditioned CG on a random right-hand side, collecting the
    (alpha, beta) scalars; the Lanczos matrix assembled from them is
    tridiagonal and its eigenvalues estimate the preconditioned spectrum.
    Stops early if CG converges (the estimate then reflects the Ritz values
    reached so far).
    """
    size = n if n is not None else getattr(a, "n_rows", None)
    if size is None:
        raise SolverError("pass n= for operators without an n_rows attribute")
    rng = np.random.default_rng(0)
    b = rng.standard_normal(size)

    def apply_m(v):
        return v if preconditioner is None else preconditioner.apply(v)

    x = np.zeros(size, dtype=VALUE_DTYPE)
    r = b - a.matvec(x)
    z = apply_m(r)
    p = z.copy()
    rz = float(r @ z)
    alphas: list[float] = []
    betas: list[float] = []
    b_norm = float(np.linalg.norm(b)) or 1.0

    for _ in range(n_iterations):
        ap = a.matvec(p)
        denom = float(p @ ap)
        if denom <= 0.0:
            raise SolverError("operator is not SPD (p.Ap <= 0)")
        alpha = rz / denom
        alphas.append(alpha)
        x = x + alpha * p
        r = r - alpha * ap
        if float(np.linalg.norm(r)) / b_norm < 1e-14:
            break
        z = apply_m(r)
        rz_new = float(r @ z)
        beta = rz_new / rz
        betas.append(beta)
        p = z + beta * p
        rz = rz_new

    m = len(alphas)
    if m == 0:
        raise SolverError("no CG iterations performed")
    diag = np.empty(m, dtype=VALUE_DTYPE)
    off = np.empty(max(m - 1, 0), dtype=VALUE_DTYPE)
    diag[0] = 1.0 / alphas[0]
    for j in range(1, m):
        diag[j] = 1.0 / alphas[j] + betas[j - 1] / alphas[j - 1]
        off[j - 1] = np.sqrt(betas[j - 1]) / alphas[j - 1]
    eigvals = np.linalg.eigvalsh(
        np.diag(diag) + np.diag(off[: m - 1], 1) + np.diag(off[: m - 1], -1)
    )
    return ConditionEstimate(
        eig_min=float(eigvals[0]), eig_max=float(eigvals[-1]), iterations=m
    )
