"""Unit tests for graph/matrix preparation."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.sparse import (
    CSRMatrix,
    absolute_offdiag,
    add,
    from_dense,
    from_edges,
    prepare_graph,
    symmetrize,
)


def test_from_edges_symmetric():
    a = from_edges(3, [0, 1], [1, 2], [2.0, -3.0])
    dense = a.to_dense()
    assert dense[0, 1] == 2.0 and dense[1, 0] == 2.0
    assert dense[1, 2] == -3.0 and dense[2, 1] == -3.0


def test_from_edges_directed():
    a = from_edges(3, [0], [1], [2.0], symmetric=False)
    dense = a.to_dense()
    assert dense[0, 1] == 2.0 and dense[1, 0] == 0.0


def test_from_edges_sums_duplicates():
    a = from_edges(2, [0, 0], [1, 1], [1.0, 2.0])
    assert a.to_dense()[0, 1] == 3.0


def test_from_edges_with_diagonal():
    a = from_edges(2, [0], [1], [1.0], diagonal=np.array([5.0, 6.0]))
    np.testing.assert_allclose(np.diag(a.to_dense()), [5.0, 6.0])


def test_from_edges_drops_cancelled_entries():
    a = from_edges(2, [0, 0], [1, 1], [1.0, -1.0])
    assert a.nnz == 0


def test_from_edges_shape_mismatch():
    with pytest.raises(ShapeError):
        from_edges(3, [0, 1], [1], [1.0, 2.0])


def test_absolute_offdiag(small_dense):
    a = from_dense(small_dense)
    ap = absolute_offdiag(a)
    dense = ap.to_dense()
    assert np.all(np.diag(dense) == 0.0)
    off = ~np.eye(5, dtype=bool)
    np.testing.assert_allclose(dense[off], np.abs(small_dense)[off])


def test_absolute_offdiag_requires_square():
    with pytest.raises(ShapeError):
        absolute_offdiag(from_dense(np.ones((2, 3))))


def test_add(small_dense):
    a = from_dense(small_dense)
    b = from_dense(np.eye(5))
    np.testing.assert_allclose(add(a, b).to_dense(), small_dense + np.eye(5))


def test_add_shape_mismatch():
    with pytest.raises(ShapeError):
        add(from_dense(np.ones((2, 2))), from_dense(np.ones((3, 3))))


def test_symmetrize():
    a = from_dense(np.array([[0.0, 2.0], [1.0, 0.0]]))
    s = symmetrize(a)
    np.testing.assert_allclose(s.to_dense(), [[0.0, 3.0], [3.0, 0.0]])


def test_prepare_graph_symmetric_input(small_dense):
    sym = small_dense + small_dense.T
    g = prepare_graph(from_dense(sym))
    dense = g.to_dense()
    # symmetric input: A' only (no doubling)
    off = ~np.eye(5, dtype=bool)
    np.testing.assert_allclose(dense[off], np.abs(sym)[off])


def test_prepare_graph_asymmetric_input():
    a = from_dense(np.array([[1.0, -2.0], [0.5, 3.0]]))
    g = prepare_graph(a)
    # A' + A'^T = |a01| + |a10| off-diagonal
    np.testing.assert_allclose(g.to_dense(), [[0.0, 2.5], [2.5, 0.0]])


def test_prepare_graph_output_invariants(small_dense):
    g = prepare_graph(from_dense(small_dense))
    assert g.is_symmetric()
    assert np.all(g.diagonal() == 0.0)
    assert np.all(g.data > 0.0)


def test_is_prepared_symmetric_follows_prepare_graphs_branch():
    from repro.sparse.build import is_prepared_symmetric

    # stored zeros, a NaN and a diagonal: entries absolute_offdiag drops
    sym = np.array(
        [[4.0, -1.0, 0.0, 2.0], [-1.0, 3.0, 0.5, 0.0], [0.0, 0.5, 1.0, -7.0],
         [2.0, 0.0, -7.0, 0.0]]
    )
    a = from_dense(sym)
    stored_zero = a.to_coo()
    stored_zero.val[(stored_zero.row == 0) & (stored_zero.col == 1)] = 0.0
    stored_zero.val[(stored_zero.row == 1) & (stored_zero.col == 0)] = np.nan
    for m in (a, stored_zero.to_csr(), a.astype(np.float32)):
        assert is_prepared_symmetric(prepare_graph(m), m)
    # values or pattern not symmetric: prepare_graph adds the transpose
    for m in (from_dense(sym * np.arange(1.0, 5.0)[:, None]),
              from_dense(np.triu(sym))):
        assert not is_prepared_symmetric(prepare_graph(m), m)
    # a graph that is not the matrix's own preparation
    assert not is_prepared_symmetric(prepare_graph(a).scale_values(2.0), a)
    assert not is_prepared_symmetric(prepare_graph(a), a.astype(np.float32))
    # the same indices and values split into rows differently
    tri = from_dense(np.array([[0.0, 1, 1, 0], [1, 0, 1, 0], [1, 1, 0, 0], [0, 0, 0, 0]]))
    g = prepare_graph(tri)
    assert is_prepared_symmetric(g, tri)
    moved = CSRMatrix(indptr=[0, 1, 2, 4, 6], indices=g.indices, data=g.data, shape=g.shape)
    assert not is_prepared_symmetric(moved, tri)
