"""The §6 block preconditioners, pinned bit for bit.

``AlgTriBlockPrecond`` is the block construction at depth 1, and
``AlgTriMultiBlockPrecond(depth=2)`` the same construction one matching
deeper.  This test builds both on ANISO2 (12), AF_SHELL8 at scale 0.25 and
two random SPD systems, and compares each block system (``sub``, ``diag``,
``sup``), one ``apply`` output and the coverage with
``data/block_fixture.npz``.

The fixture was written with::

    PYTHONPATH=src python tests/solvers/test_block_fixture.py

Regenerate it the same way only for an intentional change of the
construction.  The systems, the ``apply`` outputs and the depth-1 coverage
must match bit for bit; the depth-2 coverage sums its couplings in one
pass, so it is compared to 1e-12 relative.
"""

from __future__ import annotations

import functools
from pathlib import Path

import numpy as np
import pytest

from repro.graphs import aniso2, build_matrix, random_spd_system
from repro.solvers import AlgTriBlockPrecond, AlgTriMultiBlockPrecond

FIXTURE = Path(__file__).parent / "data" / "block_fixture.npz"
MATRICES = ("aniso2-12", "af_shell8-0.25", "spd-160-2201", "spd-96-2202")
BUILDERS = ("block", "depth2")


def _matrix(case: str):
    if case == "aniso2-12":
        return aniso2(12)
    if case == "af_shell8-0.25":
        return build_matrix("af_shell8", scale=0.25)
    _, n, seed = case.split("-")
    return random_spd_system(int(n), np.random.default_rng(int(seed)))[0]


def _build(builder: str, a):
    if builder == "block":
        return AlgTriBlockPrecond(a)
    return AlgTriMultiBlockPrecond(a, depth=2)


def _record(case: str, builder: str) -> dict[str, np.ndarray]:
    a = _matrix(case)
    p = _build(builder, a)
    r = np.random.default_rng(len(case)).standard_normal(a.n_rows)
    return {
        "sub": p.system.sub,
        "diag": p.system.diag,
        "sup": p.system.sup,
        "r": r,
        "z": p.apply(r),
        "coverage": np.array(p.coverage),
    }


@functools.lru_cache(maxsize=1)
def _fixture() -> dict[str, np.ndarray]:
    with np.load(FIXTURE) as data:
        return {key: data[key] for key in data.files}


def _same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("builder", BUILDERS)
@pytest.mark.parametrize("case", MATRICES)
def test_block_system_apply_and_coverage_match_fixture(case, builder):
    want = {
        field: _fixture()[f"{case}__{builder}__{field}"]
        for field in ("sub", "diag", "sup", "r", "z", "coverage")
    }
    a = _matrix(case)
    p = _build(builder, a)
    for field in ("sub", "diag", "sup"):
        _same_bits(getattr(p.system, field), want[field])
    _same_bits(p.apply(want["r"]), want["z"])
    if builder == "block":
        assert p.coverage == float(want["coverage"])
    else:
        assert p.coverage == pytest.approx(float(want["coverage"]), rel=1e-12)


def _write_fixture() -> None:
    arrays = {
        f"{case}__{builder}__{field}": value
        for case in MATRICES
        for builder in BUILDERS
        for field, value in _record(case, builder).items()
    }
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(FIXTURE, **arrays)
    print(f"wrote {len(arrays)} arrays to {FIXTURE}")


if __name__ == "__main__":
    _write_fixture()
