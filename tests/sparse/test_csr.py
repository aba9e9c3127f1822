"""Unit tests for the CSR format."""

import numpy as np
import pytest

from repro.errors import FormatError, ShapeError
from repro.sparse import CSRMatrix, from_dense


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
