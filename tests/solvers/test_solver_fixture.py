"""The Krylov solvers, smoothers and AMG V-cycle, pinned bit for bit.

Every solve of ``bicgstab``, ``cg`` and ``chebyshev`` on ANISO2 (10) and
two random SPD systems, under no preconditioner, ``JacobiPrecond``,
``AlgTriScalPrecond`` and ``MatchingAMGPrecond`` with either smoother, from
a zero and from a given ``x0``, is compared with ``data/solver_fixture.npz``:
the solution, the residual history, the forward errors, ``converged`` and
``breakdown``.  So are a zero right-hand side, explicit (and degenerate)
Chebyshev eigenvalue bounds, a zero operator's breakdowns, the smoother
sweeps (``ChebyshevSmoother``, ``WeightedJacobi`` and ``ColoredGaussSeidel``
forward and reversed), both AMG ``apply`` outputs and one
``estimate_condition``.

The fixture was written with::

    PYTHONPATH=src python tests/solvers/test_solver_fixture.py

Regenerate it the same way only for an intentional change of a solver's
arithmetic.  Every array must match bit for bit.
"""

from __future__ import annotations

import functools
from pathlib import Path

import numpy as np
import pytest

from repro.graphs import aniso2, random_spd_system
from repro.solvers import (
    AlgTriScalPrecond,
    ChebyshevSmoother,
    ColoredGaussSeidel,
    JacobiPrecond,
    MatchingAMGPrecond,
    WeightedJacobi,
    bicgstab,
    cg,
    chebyshev,
    estimate_condition,
)
from repro.solvers.preconditioners import _paper_solution
from repro.sparse import from_dense

FIXTURE = Path(__file__).parent / "data" / "solver_fixture.npz"
MATRICES = ("aniso2-10", "spd-120-26211", "spd-90-26212")
PRECONDITIONERS = ("none", "jacobi", "algtriscal", "amg-jacobi", "amg-gs")
SOLVERS = {"bicgstab": bicgstab, "cg": cg, "chebyshev": chebyshev}
STARTS = ("zero", "x0")
MAX_ITERATIONS = 30
TOL = 1e-8
#: The special cases, as (solver, case) pairs.
SPECIAL = tuple(
    (solver, name) for solver in SOLVERS for name in ("zero-rhs", "zero-rhs-x0", "zero-operator")
) + (("chebyshev", "eig-bounds"), ("chebyshev", "eig-bounds-equal"))


@functools.lru_cache(maxsize=None)
def _system(case: str):
    """``(a, b, x_true)``: ANISO2 with the paper's solution, or a random SPD
    system with its own."""
    if case == "aniso2-10":
        a = aniso2(10)
        x_true = _paper_solution(a.n_rows)
        return a, a.matvec(x_true), x_true
    _, n, seed = case.split("-")
    a, x_true, b = random_spd_system(int(n), np.random.default_rng(int(seed)))
    return a, b, x_true


def _start(n: int) -> np.ndarray:
    return np.random.default_rng(26221).standard_normal(n)


@functools.lru_cache(maxsize=None)
def _preconditioner(case: str, name: str):
    a = _system(case)[0]
    if name == "none":
        return None
    if name == "jacobi":
        return JacobiPrecond(a)
    if name == "algtriscal":
        return AlgTriScalPrecond(a)
    return MatchingAMGPrecond(a, smoother="jacobi" if name == "amg-jacobi" else "gauss-seidel")


def _solve_record(result) -> dict[str, np.ndarray]:
    h = result.history
    return {
        "x": result.x,
        "residuals": np.array(h.relative_residuals, dtype=np.float64),
        "forward_errors": np.array(h.forward_errors, dtype=np.float64),
        "converged": np.array(h.converged),
        "breakdown": np.array(h.breakdown or ""),
    }


def _krylov(solver: str, case: str, precond: str, start: str) -> dict[str, np.ndarray]:
    a, b, x_true = _system(case)
    x0 = None if start == "zero" else _start(a.n_rows)
    result = SOLVERS[solver](
        a, b, preconditioner=_preconditioner(case, precond), x0=x0, tol=TOL,
        max_iterations=MAX_ITERATIONS, true_solution=x_true,
    )
    return _solve_record(result)


def _special(solver: str, name: str) -> dict[str, np.ndarray]:
    a, _, x_true = _system("aniso2-10")
    n = a.n_rows
    kwargs: dict = {"tol": TOL, "max_iterations": MAX_ITERATIONS}
    b = np.zeros(n)
    if name in ("zero-rhs", "zero-rhs-x0"):
        kwargs["preconditioner"] = _preconditioner("aniso2-10", "jacobi")
        if name == "zero-rhs-x0":
            kwargs["x0"] = _start(n)
    elif name in ("eig-bounds", "eig-bounds-equal"):
        b = a.matvec(x_true)
        kwargs["true_solution"] = x_true
        kwargs["eig_bounds"] = (0.05, 8.0) if name == "eig-bounds" else (2.0, 2.0)
    else:  # a zero operator: every solver breaks down or stalls
        a = from_dense(np.zeros((6, 6)))
        b = np.ones(6)
        if solver == "chebyshev":
            kwargs["eig_bounds"] = (1.0, 2.0)
    return _solve_record(SOLVERS[solver](a, b, **kwargs))


def _sweeps(case: str) -> dict[str, np.ndarray]:
    a, b, _ = _system(case)
    x0 = _start(a.n_rows)
    cheb = ChebyshevSmoother(a)
    gs = ColoredGaussSeidel(a)
    r = np.random.default_rng(26222).standard_normal(a.n_rows)
    return {
        "chebyshev": cheb.smooth(x0, b, sweeps=2),
        "chebyshev-degree2": ChebyshevSmoother(a, degree=2).smooth(x0, b),
        "chebyshev-bounds": np.array([cheb.lo, cheb.hi]),
        "jacobi": WeightedJacobi(a).smooth(x0, b, sweeps=3),
        "gauss-seidel": gs.smooth(x0, b, sweeps=2),
        "gauss-seidel-reverse": gs.smooth(x0, b, sweeps=2, reverse=True),
        "r": r,
        "amg-jacobi": _preconditioner(case, "amg-jacobi").apply(r),
        "amg-gs": _preconditioner(case, "amg-gs").apply(r),
    }


def _condition() -> dict[str, np.ndarray]:
    a = _system("aniso2-10")[0]
    est = estimate_condition(a, preconditioner=_preconditioner("aniso2-10", "jacobi"))
    return {
        "eig_min": np.array(est.eig_min),
        "eig_max": np.array(est.eig_max),
        "iterations": np.array(est.iterations),
    }


@functools.lru_cache(maxsize=1)
def _fixture() -> dict[str, np.ndarray]:
    with np.load(FIXTURE) as data:
        return {key: data[key] for key in data.files}


def _check(prefix: str, got: dict[str, np.ndarray]) -> None:
    want = {
        key[len(prefix):]: value
        for key, value in _fixture().items()
        if key.startswith(prefix)
    }
    assert set(got) == set(want)
    for field, value in got.items():
        value = np.asarray(value)
        assert value.dtype == want[field].dtype, field
        assert value.shape == want[field].shape, field
        assert value.tobytes() == want[field].tobytes(), field


@pytest.mark.parametrize("start", STARTS)
@pytest.mark.parametrize("precond", PRECONDITIONERS)
@pytest.mark.parametrize("case", MATRICES)
@pytest.mark.parametrize("solver", tuple(SOLVERS))
def test_krylov_solve_matches_fixture(solver, case, precond, start):
    _check(f"{solver}__{case}__{precond}__{start}__", _krylov(solver, case, precond, start))


@pytest.mark.parametrize(("solver", "name"), SPECIAL)
def test_special_solve_matches_fixture(solver, name):
    _check(f"{solver}__special__{name}__", _special(solver, name))


@pytest.mark.parametrize("case", MATRICES)
def test_smoother_sweeps_and_amg_apply_match_fixture(case):
    _check(f"sweeps__{case}__", _sweeps(case))


def test_condition_estimate_matches_fixture():
    _check("condition__", _condition())


def _write_fixture() -> None:
    arrays: dict[str, np.ndarray] = {}

    def put(prefix: str, record: dict[str, np.ndarray]) -> None:
        arrays.update({f"{prefix}{field}": value for field, value in record.items()})

    for solver in SOLVERS:
        for case in MATRICES:
            for precond in PRECONDITIONERS:
                for start in STARTS:
                    put(f"{solver}__{case}__{precond}__{start}__",
                        _krylov(solver, case, precond, start))
    for solver, name in SPECIAL:
        put(f"{solver}__special__{name}__", _special(solver, name))
    for case in MATRICES:
        put(f"sweeps__{case}__", _sweeps(case))
    put("condition__", _condition())
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(FIXTURE, **arrays)
    print(f"wrote {len(arrays)} arrays to {FIXTURE}")


if __name__ == "__main__":
    _write_fixture()
