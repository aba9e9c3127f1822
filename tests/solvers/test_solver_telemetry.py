"""Every Krylov solve reports itself the same way.

``bicgstab``, ``cg`` and ``chebyshev`` each open one ``solver`` span named
after the solver, carrying the iterations, convergence and final residual
(and the breakdown, when there is one), and feed ``solver.iterations``,
``solver.final_residual`` and the ``solver.relative_residual`` histogram of
the ambient registry.
"""

import numpy as np
import pytest

from repro.errors import SolverError
from repro.graphs import aniso2
from repro.obs import MetricsRegistry, Tracer, use_metrics, use_tracer
from repro.solvers import JacobiPrecond, bicgstab, cg, chebyshev
from repro.sparse import from_dense

SOLVERS = {"bicgstab": bicgstab, "cg": cg, "chebyshev": chebyshev}


def _observed(solver, a, b, **kwargs):
    tracer, registry = Tracer(), MetricsRegistry()
    with use_tracer(tracer), use_metrics(registry):
        result = SOLVERS[solver](a, b, **kwargs)
    return tracer.find(category="solver"), registry, result


@pytest.mark.parametrize("solver", tuple(SOLVERS))
def test_solve_reports_one_span_and_the_solver_metrics(solver):
    a = aniso2(10)
    spans, registry, res = _observed(
        solver, a, np.ones(a.n_rows), preconditioner=JacobiPrecond(a), tol=1e-10,
        max_iterations=500,
    )
    history = res.history
    assert res.converged
    assert [s.name for s in spans] == [solver]
    attributes = spans[0].attributes
    assert attributes["iterations"] == history.n_iterations > 0
    assert attributes["converged"] is True
    assert attributes["final_residual"] == history.final_residual
    assert attributes["preconditioner"] == "Jacobi"
    assert attributes["n"] == a.n_rows
    assert "breakdown" not in attributes
    assert registry.counter("solver.iterations").value == history.n_iterations
    assert registry.gauge("solver.final_residual").value == history.final_residual
    assert (registry.histogram("solver.relative_residual").count
            == len(history.relative_residuals))


@pytest.mark.parametrize(("solver", "breakdown"), [("bicgstab", "r0.v"), ("cg", "p.Ap")])
def test_breakdown_reaches_the_span(solver, breakdown):
    spans, registry, res = _observed(solver, from_dense(np.zeros((4, 4))), np.ones(4))
    assert res.history.breakdown == breakdown
    assert [s.attributes["breakdown"] for s in spans] == [breakdown]
    assert spans[0].attributes["converged"] is False
    assert registry.counter("solver.iterations").value == 0


def test_refused_solve_publishes_no_metrics():
    """An invalid Chebyshev interval fails inside the span: the span records
    the error, and no iteration count or final residual is published."""
    a = aniso2(6)
    tracer, registry = Tracer(), MetricsRegistry()
    with use_tracer(tracer), use_metrics(registry), pytest.raises(SolverError):
        chebyshev(a, np.ones(a.n_rows), eig_bounds=(2.0, 1.0))
    (span,) = tracer.find(category="solver")
    assert span.name == "chebyshev"
    assert span.attributes["error"] == "SolverError"
    assert "iterations" not in span.attributes
    assert "solver.iterations" not in registry.counters
