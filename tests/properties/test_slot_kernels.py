"""Independent oracles for the slot-wise host kernels.

The factor property suite compares :func:`~repro.core.factor.parallel_factor`
with :func:`~repro.core.ablations.reference_parallel_factor`, but both call
``_confirm_mutual``, so a bug there is invisible to it.  Likewise the
extraction and coverage tests mostly compare one pipeline run with another.
The oracles below share no code with the kernels they check:

* the bands of :func:`~repro.core.extraction.extract_tridiagonal` against a
  dense matrix and a Python set of forest edges, bit for bit, on one device
  and on a group of three;
* :func:`~repro.core.coverage.coverage` against the formula
  ``Σ(|a_uv| + |a_vu|)/2 / ω_G`` evaluated with :meth:`CSRMatrix.gather`;
* ``_confirm_mutual`` against a literal loop over (vertex, slot);
* :func:`~repro.core.structures.compact_rows` against the stable argsort of
  every row by emptiness, the form it replaced.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Factor,
    ParallelFactorConfig,
    coverage,
    extract_linear_forest,
    extract_tridiagonal,
    graph_weight,
    parallel_factor,
)
from repro.core.factor import _confirm_mutual
from repro.core.structures import NO_PARTNER, compact_rows
from repro.device import Device, DeviceGroup
from repro.sparse import CSRMatrix, prepare_graph

#: Stored values: explicit zeros of both signs, negatives and ties.
VALUES = np.array([0.0, -0.0, 1.0, -1.0, 2.5, -3.0, 0.125, 7.0])


@st.composite
def matrices(draw, max_n=24):
    """Square CSR matrices with asymmetric patterns, stored zeros, ``-0.0``
    and either precision."""
    n = draw(st.integers(1, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    n_entries = draw(st.integers(0, 4 * n))
    keys = np.unique(rng.integers(0, n * n, n_entries))
    if draw(st.booleans()):
        # a stored diagonal on every row
        keys = np.union1d(keys, np.arange(n) * (n + 1))
    rows, cols = keys // n, keys % n
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    data = rng.choice(VALUES, keys.size).astype(dtype)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    return CSRMatrix(indptr, cols, data, (n, n))


def _dense(a: CSRMatrix) -> np.ndarray:
    # in the matrix's own dtype: a stored -0.0 stays -0.0, an absent entry +0.0
    dense = np.zeros(a.shape, dtype=a.data.dtype)
    dense[a.nnz_rows, a.indices] = a.data
    return dense


def _dense_bands(a: CSRMatrix, forest: Factor, perm: np.ndarray):
    """The tridiagonal system read off a dense ``A``: the diagonal always,
    a neighbour's coupling only across a forest edge."""
    dense = _dense(a)
    edges = {
        (v, w)
        for v, row in enumerate(forest.neighbors.tolist())
        for w in row
        if w != NO_PARTNER
    }
    n = a.n_rows
    perm = perm.tolist()
    dl = np.zeros(n, dtype=a.data.dtype)
    d = np.zeros(n, dtype=a.data.dtype)
    du = np.zeros(n, dtype=a.data.dtype)
    for i, v in enumerate(perm):
        d[i] = dense[v, v]
        if i > 0 and (v, perm[i - 1]) in edges:
            dl[i] = dense[v, perm[i - 1]]
        if i < n - 1 and (v, perm[i + 1]) in edges:
            du[i] = dense[v, perm[i + 1]]
    return dl, d, du


def _assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_bands_equal_the_dense_oracle(a):
    result = extract_linear_forest(a, device=Device())
    want = _dense_bands(a, result.forest, result.perm)
    for device in (Device(), DeviceGroup(3)):
        system = extract_tridiagonal(a, result.forest, result.perm, device=device)
        for got, band in zip((system.dl, system.d, system.du), want):
            _assert_same_bits(got, band)
    for got, band in zip(
        (result.tridiagonal.dl, result.tridiagonal.d, result.tridiagonal.du), want
    ):
        _assert_same_bits(got, band)


def _gather_coverage(a: CSRMatrix, factor: Factor) -> float:
    total = graph_weight(a)
    if total == 0.0:
        return 0.0
    u, v = factor.edges()
    if u.size == 0:
        return 0.0 / total
    w = (np.abs(a.gather(u, v)) + np.abs(a.gather(v, u))) / 2.0
    return float(w.sum()) / total


@given(matrices(), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_coverage_equals_the_gather_formula(a, n):
    factor = parallel_factor(prepare_graph(a), ParallelFactorConfig(n=n)).factor
    assert coverage(a, factor) == _gather_coverage(a, factor)
    forest = extract_linear_forest(a).forest
    assert coverage(a, forest) == _gather_coverage(a, forest)


def _loop_confirm(confirmed, degree, prop_cols, lo, hi) -> int:
    """Alg. 2 line 27, one (vertex, slot) at a time: a proposal ``v → w``
    is confirmed when ``w`` also proposed ``v``; it fills ``v``'s next slot."""
    added = 0
    for v in range(lo, hi):
        fill = int(degree[v])
        for w in prop_cols[v].tolist():
            if w != NO_PARTNER and v in prop_cols[w].tolist():
                confirmed[v, fill] = w
                fill += 1
                added += 1
    return added


@st.composite
def proposal_rounds(draw):
    """A partly filled ``confirmed`` array and a proposal array that respects
    every row's free capacity, with holes between proposals.  Like Alg. 2,
    rows mostly fill their capacity with their heaviest neighbours under
    symmetric weights, so many proposals are mutual and many rows confirm
    several partners in one call."""
    n = draw(st.integers(1, 4))
    n_vertices = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    weight = rng.random((n_vertices, n_vertices))
    weight += weight.T
    degree = np.where(
        rng.random(n_vertices) < 0.3, rng.integers(0, n + 1, n_vertices), 0
    )
    confirmed = np.full((n_vertices, n), NO_PARTNER, dtype=np.int64)
    prop_cols = np.full((n_vertices, n), NO_PARTNER, dtype=np.int64)
    for v in range(n_vertices):
        confirmed[v, : degree[v]] = rng.integers(0, n_vertices, degree[v])
        others = np.delete(np.arange(n_vertices), v)
        others = others[np.argsort(-weight[v, others])]
        k = min(n - int(degree[v]), others.size)
        if rng.random() < 0.3:
            k = int(rng.integers(0, k + 1))
        slots = np.sort(rng.choice(n, k, replace=False))
        prop_cols[v, slots] = others[:k]
    cuts = np.sort(rng.integers(0, n_vertices + 1, draw(st.integers(0, 3))))
    bounds = [0, *cuts.tolist(), n_vertices]
    return confirmed, degree, prop_cols, list(zip(bounds[:-1], bounds[1:]))


@given(proposal_rounds())
@settings(max_examples=200, deadline=None)
def test_confirm_mutual_equals_the_slot_loop(case):
    confirmed, degree, prop_cols, shards = case
    want = confirmed.copy()
    want_added = _loop_confirm(want, degree, prop_cols, 0, len(degree))

    whole = confirmed.copy()
    assert _confirm_mutual(whole, degree.copy(), prop_cols) == want_added
    np.testing.assert_array_equal(whole, want)

    sharded = confirmed.copy()
    added = 0
    for lo, hi in shards:
        expected = sharded.copy()
        want_shard = _loop_confirm(expected, degree, prop_cols, lo, hi)
        got_shard = _confirm_mutual(sharded, degree.copy(), prop_cols, lo, hi)
        assert got_shard == want_shard
        np.testing.assert_array_equal(sharded, expected)
        added += got_shard
    assert added == want_added
    np.testing.assert_array_equal(sharded, want)


def test_confirm_mutual_refuses_to_overfill_a_row():
    # vertex 0 has one free slot but two mutual proposals: the second confirm
    # must raise, not spill into vertex 1's first slot
    confirmed = np.array([[3, -1], [-1, -1], [-1, -1], [0, -1]])
    degree = np.array([1, 0, 0, 1])
    prop_cols = np.array([[1, 2], [0, -1], [0, -1], [-1, -1]])
    with pytest.raises(IndexError):
        _confirm_mutual(confirmed, degree, prop_cols)


@given(
    n_vertices=st.integers(0, 40),
    n=st.integers(1, 4),
    holes=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_compact_rows_equals_the_stable_argsort(n_vertices, n, holes, seed):
    rng = np.random.default_rng(seed)
    neighbors = rng.integers(0, max(n_vertices, 1), (n_vertices, n))
    neighbors[rng.random(neighbors.shape) < holes] = NO_PARTNER
    before = neighbors.copy()
    # the oracle: every row sorted stably by emptiness
    order = np.argsort(neighbors == NO_PARTNER, axis=1, kind="stable")
    want = np.take_along_axis(neighbors, order, axis=1)
    got = compact_rows(neighbors)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.array_equal(neighbors, before)
    # a Factor owns its array, also when no row moves
    assert not np.shares_memory(got, neighbors)
    assert not np.shares_memory(Factor(want).neighbors, want)
