"""Convergence bookkeeping for the Figure 4 experiments.

:func:`_krylov_run` is the one set-up and record of every Krylov solve
(:func:`~repro.solvers.bicgstab`, :func:`~repro.solvers.cg` and
:func:`~repro.solvers.chebyshev`): the solvers supply only their recurrence
and breakdown tests, as a generator of iterates.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .._validation import VALUE_DTYPE
from ..errors import ShapeError
from ..obs import current_metrics, trace_span

__all__ = ["BiCGStabResult", "ConvergenceHistory"]

#: A Krylov recurrence breaks down when a scalar it divides by falls below this.
_BREAKDOWN_EPS = 1e-300


@dataclass
class ConvergenceHistory:
    """Per-iteration records of an iterative solve.

    ``relative_residuals[k]`` is ‖r_k‖₂/‖b‖₂; ``forward_errors[k]`` is the
    forward relative error FRE = ‖x_k − x_t‖₂/‖x_t‖₂ when the true solution
    is known (the paper constructs the right-hand side from
    ``x_t[i] = sin(16πi/N)``).
    """

    relative_residuals: list[float] = field(default_factory=list)
    forward_errors: list[float] = field(default_factory=list)
    converged: bool = False
    breakdown: str | None = None

    @property
    def n_iterations(self) -> int:
        return max(0, len(self.relative_residuals) - 1)

    @property
    def final_residual(self) -> float:
        return self.relative_residuals[-1] if self.relative_residuals else np.inf

    @property
    def final_forward_error(self) -> float | None:
        return self.forward_errors[-1] if self.forward_errors else None

    def iterations_to(self, tol: float) -> int | None:
        """First iteration whose relative residual drops below ``tol``."""
        for k, r in enumerate(self.relative_residuals):
            if r < tol:
                return k
        return None


@dataclass(frozen=True)
class BiCGStabResult:
    """The solution and history of a Krylov solve (every solver returns one)."""

    x: np.ndarray
    history: ConvergenceHistory

    @property
    def converged(self) -> bool:
        return self.history.converged


def _norm(v: np.ndarray) -> float:
    return float(np.linalg.norm(v))


class _KrylovRun:
    """One solve's state, as :func:`_krylov_run` hands it to a solver."""

    def __init__(self, b, x, preconditioner, tol, true_solution):
        self.b = b
        self.tol = tol
        self.history = ConvergenceHistory()
        self._x = x
        self._preconditioner = preconditioner
        self._metrics = current_metrics()
        self._b_norm = _norm(b) or 1.0
        self._true = None
        if true_solution is not None:
            self._true = np.asarray(true_solution, dtype=VALUE_DTYPE)
            self._xt_norm = _norm(self._true) or 1.0

    def apply_m(self, v: np.ndarray) -> np.ndarray:
        """``M⁻¹v``; ``v`` itself without a preconditioner."""
        return v if self._preconditioner is None else self._preconditioner.apply(v)

    def relative(self, r: np.ndarray) -> float:
        """‖r‖/‖b‖ (‖b‖ read as 1 for a zero right-hand side)."""
        return _norm(r) / self._b_norm

    def _record(self, x: np.ndarray, r: np.ndarray) -> bool:
        """Record iterate ``x`` with residual ``r``; true once ‖r‖/‖b‖ < tol."""
        rel = self.relative(r)
        self.history.relative_residuals.append(rel)
        if self._metrics is not None and not np.isnan(rel):
            # a NaN residual (total numerical breakdown) stays visible in
            # the history; the histogram rejects NaN by contract
            self._metrics.histogram("solver.relative_residual").observe(rel)
        if self._true is not None:
            self.history.forward_errors.append(_norm(x - self._true) / self._xt_norm)
        if rel < self.tol:
            self.history.converged = True
        return self.history.converged

    def drive(self, a, steps) -> BiCGStabResult:
        """Record the start and each ``(x, r)`` that the generator
        ``steps(x0, r0)`` yields, until one converges or the generator ends
        (at its iteration cap, or at a breakdown it writes to
        ``history.breakdown``)."""
        x = self._x
        r = self.b - a.matvec(x)
        if not self._record(x, r):
            for x, r in steps(x, r):
                if self._record(x, r):
                    break
        return BiCGStabResult(x=x, history=self.history)


@contextmanager
def _krylov_run(
    name: str,
    b: np.ndarray,
    *,
    preconditioner,
    x0: np.ndarray | None,
    tol: float,
    max_iterations: int,
    true_solution: np.ndarray | None,
) -> Iterator[_KrylovRun]:
    """Set up one Krylov solve and publish it on exit.

    Checks ``x0`` against ``b``, records ‖r‖/‖b‖ (into the ambient
    ``solver.relative_residual`` histogram too) and the forward relative
    error of each iterate, and wraps the solve in a ``solver`` span named
    ``name``.  A solve that returns adds its iterations, convergence and
    final residual to the span and to ``solver.iterations`` and
    ``solver.final_residual``.
    """
    b = np.asarray(b, dtype=VALUE_DTYPE)
    x = np.zeros(b.size, dtype=VALUE_DTYPE) if x0 is None else np.array(x0, dtype=VALUE_DTYPE)
    if x.shape != b.shape:
        raise ShapeError("x0 must have the same shape as b")
    run = _KrylovRun(b, x, preconditioner, tol, true_solution)
    with trace_span(
        name,
        category="solver",
        n=b.size,
        tol=tol,
        max_iterations=max_iterations,
        preconditioner=getattr(preconditioner, "name", None),
    ) as span:
        yield run
        history = run.history
        if run._metrics is not None:
            run._metrics.counter("solver.iterations").inc(history.n_iterations)
            run._metrics.gauge("solver.final_residual").set(history.final_residual)
        if span is not None:
            span.attributes.update(
                iterations=history.n_iterations,
                converged=history.converged,
                final_residual=history.final_residual,
            )
            if history.breakdown is not None:
                span.attributes["breakdown"] = history.breakdown
