"""Unit tests for the CSR format."""

import warnings

import numpy as np
import pytest

from repro.errors import FormatError, ShapeError
from repro.graphs import aniso2
from repro.sparse import CSRMatrix, from_dense, matrix_digest, prepare_graph


def test_validation_rejects_bad_indptr():
    with pytest.raises(FormatError):
        CSRMatrix(indptr=[0, 2], indices=[0], data=[1.0], shape=(1, 2))


def test_validation_rejects_unsorted_columns():
    with pytest.raises(FormatError):
        CSRMatrix(indptr=[0, 2], indices=[1, 0], data=[1.0, 2.0], shape=(1, 2))


def test_validation_rejects_duplicate_columns():
    with pytest.raises(FormatError):
        CSRMatrix(indptr=[0, 2], indices=[1, 1], data=[1.0, 2.0], shape=(1, 2))


def test_validation_allows_decreases_only_at_row_starts():
    # empty rows repeat indptr values, a trailing empty row points at nnz
    CSRMatrix(indptr=[0, 2, 2, 3, 3], indices=[1, 3, 0], data=[1.0] * 3, shape=(4, 4))
    with pytest.raises(FormatError, match="strictly increasing"):
        CSRMatrix(indptr=[0, 1, 1, 3], indices=[2, 1, 0], data=[1.0] * 3, shape=(3, 3))
    with pytest.raises(FormatError, match="strictly increasing"):
        CSRMatrix(indptr=[0, 0, 3], indices=[0, 2, 2], data=[1.0] * 3, shape=(2, 3))


def test_validation_rejects_decreasing_indptr():
    with pytest.raises(FormatError):
        CSRMatrix(indptr=[0, 2, 1, 3], indices=[0, 1, 0], data=[1.0] * 3, shape=(3, 2))


def test_row_access(small_csr, small_dense):
    cols, vals = small_csr.row(1)
    np.testing.assert_array_equal(cols, [0, 1, 2])
    np.testing.assert_allclose(vals, [-1.0, 3.0, -2.0])


def test_row_lengths_and_nnz_rows(small_csr):
    assert small_csr.row_lengths.sum() == small_csr.nnz
    np.testing.assert_array_equal(
        np.bincount(small_csr.nnz_rows, minlength=small_csr.n_rows),
        small_csr.row_lengths,
    )


def test_diagonal(small_csr, small_dense):
    np.testing.assert_allclose(small_csr.diagonal(), np.diag(small_dense))


def test_diagonal_with_missing_entries():
    a = from_dense(np.array([[0.0, 1.0], [2.0, 0.0]]))
    np.testing.assert_allclose(a.diagonal(), [0.0, 0.0])


def test_gather_present_and_absent(small_csr, small_dense):
    rows = np.array([0, 0, 2, 4, 3])
    cols = np.array([1, 2, 4, 2, 3])
    expected = small_dense[rows, cols]
    np.testing.assert_allclose(small_csr.gather(rows, cols), expected)


def test_gather_empty_matrix():
    a = CSRMatrix(indptr=[0, 0], indices=[], data=[], shape=(1, 1))
    np.testing.assert_allclose(a.gather(np.array([0]), np.array([0])), [0.0])


def test_find_gives_the_sorted_insertion_point_inside_the_row():
    # empty first, middle and last rows, long and one-entry rows
    rng = np.random.default_rng(7)
    dense = np.where(rng.random((9, 40)) < 0.3, rng.standard_normal((9, 40)), 0.0)
    dense[[0, 4, 8]] = 0.0
    dense[6] = 0.0
    dense[6, 17] = 1.5
    a = from_dense(dense)
    rows, cols = np.meshgrid(np.arange(9), np.arange(40), indexing="ij")
    pos, stored = a.find(rows, cols)
    # the same answer as a search in the matrix-wide sorted key array
    keys = np.searchsorted(a.nnz_rows * a.n_cols + a.indices, rows * a.n_cols + cols)
    np.testing.assert_array_equal(pos, keys)
    np.testing.assert_array_equal(stored, dense != 0)
    np.testing.assert_array_equal(a.gather(rows, cols), dense)


def test_gather_reads_float32_as_float64():
    a = from_dense(np.array([[0.0, 0.1], [0.3, 0.0]])).astype(np.float32)
    out = a.gather([0, 1, 1], [1, 0, 1])
    assert out.dtype == np.float64
    assert out.tolist() == [float(np.float32(0.1)), float(np.float32(0.3)), 0.0]


def test_contains(small_csr, small_dense):
    rows = np.array([0, 1, 3, 4])
    cols = np.array([3, 1, 1, 2])
    expected = small_dense[rows, cols] != 0
    np.testing.assert_array_equal(small_csr.contains(rows, cols), expected)


def test_transpose(small_csr, small_dense):
    np.testing.assert_allclose(small_csr.transpose().to_dense(), small_dense.T)


def test_symmetry_checks(small_dense):
    sym = from_dense(small_dense + small_dense.T)
    assert sym.is_symmetric()
    assert sym.is_pattern_symmetric()
    asym = from_dense(np.array([[0.0, 1.0], [2.0, 0.0]]))
    assert not asym.is_symmetric()
    assert asym.is_pattern_symmetric()
    pattern_asym = from_dense(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert not pattern_asym.is_pattern_symmetric()


def _pairs(first, second):
    """The 3×3 graph whose two mirrored pairs (0, 1) and (1, 2) hold
    ``first`` and ``second``: data order (0,1), (1,0), (1,2), (2,1)."""
    return CSRMatrix(
        indptr=[0, 1, 3, 4], indices=[1, 0, 2, 1],
        data=[first[0], first[1], second[0], second[1]], shape=(3, 3),
    )


def test_mirrored_infinities_are_symmetric():
    """inf − inf is NaN: a subtract-then-compare test read a mirrored +inf
    pair as asymmetric, and prepare_graph returned A' + A'^T, every finite
    weight doubled, after a RuntimeWarning."""
    inf, nan = np.inf, np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a = _pairs((inf, inf), (1.0, 1.0))
        assert a.is_symmetric()
        assert a.is_symmetric(tol=1e-12)
        assert prepare_graph(a).data.tolist() == [inf, inf, 1.0, 1.0]
        for first in ((nan, nan), (inf, -inf)):
            b = _pairs(first, (1.0, 1.0))
            assert not b.is_symmetric()
            assert not b.is_symmetric(tol=1e-12)


def test_permute_round_trip(small_dense, rng):
    a = from_dense(small_dense)
    perm = rng.permutation(5)
    p = a.permute(perm)
    dense = small_dense[np.ix_(perm, perm)]
    np.testing.assert_allclose(p.to_dense(), dense)


def test_permute_requires_square():
    a = from_dense(np.ones((2, 3)))
    with pytest.raises(ShapeError):
        a.permute(np.array([0, 1]))


def test_matmul_matches_dense(small_csr, small_dense, rng):
    x = rng.standard_normal(5)
    np.testing.assert_allclose(small_csr @ x, small_dense @ x)


def test_map_values_and_scale(small_csr, small_dense):
    np.testing.assert_allclose(
        small_csr.map_values(np.abs).to_dense(), np.abs(small_dense)
    )
    np.testing.assert_allclose(
        small_csr.scale_values(2.0).to_dense(), 2.0 * small_dense
    )


def test_mean_degree(small_csr):
    assert small_csr.mean_degree == pytest.approx(small_csr.nnz / 5)


def test_matrix_digest_is_the_full_sha256_that_tuning_fingerprints_truncate():
    import repro.tune

    assert repro.tune.matrix_digest is matrix_digest
    graph = prepare_graph(aniso2(8))
    digest = matrix_digest(graph)
    assert len(digest) == 64 and set(digest) <= set("0123456789abcdef")
    assert repro.tune.fingerprint_graph(graph).digest == digest[:12]
