"""Unit tests for the tridiagonalising permutation."""

import numpy as np
import pytest

from repro.core import Factor, forest_permutation, identify_paths, is_tridiagonal_under
from repro.core.paths import PathInfo
from repro.core.permutation import inverse_permutation
from repro.errors import PathError
from repro.graphs import random_linear_forest


def test_inverse_permutation():
    perm = np.array([2, 0, 1])
    inv = inverse_permutation(perm)
    np.testing.assert_array_equal(inv, [1, 2, 0])
    np.testing.assert_array_equal(perm[inv], np.arange(3))


def test_single_path_yields_identity_like_order():
    f = Factor.from_edge_list(4, 2, [0, 1, 2], [1, 2, 3])
    info = identify_paths(f)
    perm = forest_permutation(info)
    np.testing.assert_array_equal(perm, [0, 1, 2, 3])
    assert is_tridiagonal_under(f, perm)


def test_scrambled_path_order():
    f = Factor.from_edge_list(10, 2, [7, 2, 9], [2, 9, 0])
    info = identify_paths(f)
    perm = forest_permutation(info)
    # path (0, 9, 2, 7) comes first, then singletons by id
    np.testing.assert_array_equal(perm[:4], [0, 9, 2, 7])
    assert is_tridiagonal_under(f, perm)


def test_permutation_is_valid_permutation(rng):
    gt = random_linear_forest(77, rng)
    perm = forest_permutation(identify_paths(gt.factor))
    assert np.array_equal(np.sort(perm), np.arange(77))


def test_tridiagonality_random_forests(rng):
    for _ in range(8):
        n = int(rng.integers(2, 100))
        gt = random_linear_forest(n, rng)
        perm = forest_permutation(identify_paths(gt.factor))
        assert is_tridiagonal_under(gt.factor, perm)


def test_paths_ordered_by_path_id(rng):
    gt = random_linear_forest(40, rng, max_path_len=6)
    info = identify_paths(gt.factor)
    perm = forest_permutation(info)
    ids_in_order = info.path_id[perm]
    assert (np.diff(ids_in_order) >= 0).all()


def test_is_tridiagonal_under_detects_violation():
    f = Factor.from_edge_list(3, 2, [0], [2])
    assert not is_tridiagonal_under(f, np.array([0, 1, 2]))
    assert is_tridiagonal_under(f, np.array([0, 2, 1]))


def test_empty_factor_always_tridiagonal():
    f = Factor.empty(4, 2)
    assert is_tridiagonal_under(f, np.arange(4))


def test_placement_equals_the_radix_sort_reference(rng):
    from repro.sort import pack_keys, radix_argsort

    gt = random_linear_forest(90, rng, max_path_len=7)
    info = identify_paths(gt.factor)
    np.testing.assert_array_equal(
        forest_permutation(info), radix_argsort(pack_keys(info.path_id, info.position))
    )


@pytest.mark.parametrize(
    "path_id, position",
    [
        ([0, 0, 2], [1, 1, 1]),  # duplicate position inside path 0
        ([0, 0, 2], [1, 3, 1]),  # position past the path's length
        ([0, 0, 2], [1, 2, 3]),  # ... and past the end of the array
        ([0, 0, 2], [0, 1, 1]),  # positions are 1-based
        ([0, 0, 2], [-1, 1, 1]),
        ([0, 0, 3], [1, 2, 1]),  # path id is not a vertex id
        ([0, 0, -1], [1, 2, 1]),
    ],
)
def test_malformed_paths_raise_the_named_error(path_id, position):
    info = PathInfo(path_id=np.array(path_id), position=np.array(position))
    with pytest.raises(PathError):
        forest_permutation(info)


def test_empty_path_info_places_nothing():
    info = PathInfo(path_id=np.empty(0, dtype=np.int64), position=np.empty(0, dtype=np.int64))
    assert forest_permutation(info).size == 0
