"""Unit tests for graph/matrix preparation."""

import numpy as np
import pytest

from repro.errors import FactorError, ShapeError
from repro.sparse import (
    CSRMatrix,
    PreparedGraph,
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


def test_prepare_graph_records_its_branch_and_what_it_dropped():
    # stored zeros, a NaN and a diagonal: entries absolute_offdiag drops
    sym = np.array(
        [[4.0, -1.0, 0.0, 2.0], [-1.0, 3.0, 0.5, 0.0], [0.0, 0.5, 1.0, -7.0],
         [2.0, 0.0, -7.0, 0.0]]
    )
    a = from_dense(sym)
    stored_zero = from_dense(sym).to_coo()  # its values are the matrix's own
    stored_zero.val[(stored_zero.row == 0) & (stored_zero.col == 1)] = 0.0
    stored_zero.val[(stored_zero.row == 1) & (stored_zero.col == 0)] = np.nan
    cases = [
        (a, True, True),
        (stored_zero.to_csr(), True, False),
        (a.astype(np.float32), True, True),
        # values or pattern not symmetric: prepare_graph adds the transpose
        (from_dense(sym * np.arange(1.0, 5.0)[:, None]), False, True),
        (from_dense(np.triu(sym)), False, True),
    ]
    for m, symmetric, diagonal_only in cases:
        g = prepare_graph(m)
        assert isinstance(g, PreparedGraph) and g.dtype == m.dtype
        assert (g.symmetric, g.diagonal_only) == (symmetric, diagonal_only)
        assert g.is_symmetric()
    # only prepare_graph proves: its first step and the graph's own
    # transforms are plain
    g = prepare_graph(a)
    assert type(absolute_offdiag(a)) is CSRMatrix
    assert type(g.scale_values(2.0)) is CSRMatrix
    assert type(g.astype(np.float32)) is CSRMatrix


def test_a_prepared_graph_refuses_weights_no_engine_takes():
    with pytest.raises(FactorError, match="non-negative"):
        PreparedGraph(indptr=[0, 1, 2], indices=[1, 0], data=[-1.0, -1.0], shape=(2, 2))
    with pytest.raises(FactorError, match="NaN"):
        PreparedGraph(indptr=[0, 1, 2], indices=[1, 0], data=[np.nan, 1.0], shape=(2, 2))
    g = PreparedGraph(indptr=[0, 1, 2], indices=[1, 0], data=[1.0, 1.0], shape=(2, 2))
    assert not g.symmetric and not g.diagonal_only
    assert repr(g) == "CSRMatrix(shape=(2, 2), nnz=2)"
