"""Unit tests for the Factor representation."""

import numpy as np
import pytest

from repro.core import Factor
from repro.core.structures import NO_PARTNER, compact_rows
from repro.errors import FactorError
from repro.sparse import from_edges, prepare_graph


def test_compact_rows_pushes_padding_right():
    neigh = np.array([[-1, 3, -1, 5], [2, -1, 1, -1]])
    out = compact_rows(neigh)
    np.testing.assert_array_equal(out, [[3, 5, -1, -1], [2, 1, -1, -1]])


def test_construction_compacts():
    f = Factor(np.array([[-1, 2], [-1, -1], [0, -1]]))
    np.testing.assert_array_equal(f.neighbors[0], [2, -1])


def test_degrees_size_edges():
    f = Factor.from_edge_list(4, 2, [0, 1, 2], [1, 2, 3])
    np.testing.assert_array_equal(f.degrees, [1, 2, 2, 1])
    assert f.size == 6
    assert f.edge_count == 3
    u, v = f.edges()
    assert set(zip(u.tolist(), v.tolist())) == {(0, 1), (1, 2), (2, 3)}


def test_empty_factor():
    f = Factor.empty(3, 2)
    assert f.size == 0
    u, v = f.edges()
    assert u.size == 0


def test_from_edge_list_rejects_overflow():
    with pytest.raises(FactorError):
        Factor.from_edge_list(3, 1, [0, 1], [1, 2])


def test_from_edge_list_rejects_self_loop():
    with pytest.raises(FactorError):
        Factor.from_edge_list(3, 2, [1], [1])


def test_contains_edges():
    f = Factor.from_edge_list(4, 2, [0, 1], [1, 3])
    mask = f.contains_edges(np.array([0, 1, 0, 3]), np.array([1, 0, 3, 1]))
    np.testing.assert_array_equal(mask, [True, True, False, True])


def test_contains_edges_answers_false_outside_the_vertex_range():
    """The ``-1`` padding is no partner, and an id outside ``[0, N)`` on
    either side is no vertex (row ``-1`` is not the last vertex)."""
    f = Factor.from_edge_list(4, 2, [0, 3], [1, 0])
    u = [2, 0, -1, 4, 0, -1, 5]
    v = [-1, -1, 0, 0, 4, -1, -1]
    np.testing.assert_array_equal(f.contains_edges(u, v), [False] * len(u))
    np.testing.assert_array_equal(f.contains_edges([3, 0], [0, 3]), [True, True])


def test_remove_edges_both_directions():
    f = Factor.from_edge_list(4, 2, [0, 1, 2], [1, 2, 3])
    g = f.remove_edges(np.array([1]), np.array([2]))
    assert not g.contains_edges(np.array([1]), np.array([2]))[0]
    assert not g.contains_edges(np.array([2]), np.array([1]))[0]
    assert g.edge_count == 2
    # original untouched (immutability)
    assert f.edge_count == 3


def test_restrict_to():
    f = Factor.from_edge_list(4, 2, [0, 1, 2], [1, 2, 3])
    g = f.restrict_to(np.array([True, True, False, True]))
    assert g.edge_count == 1
    assert g.contains_edges(np.array([0]), np.array([1]))[0]


def test_validate_passes_on_good_factor(path_graph):
    f = Factor.from_edge_list(5, 2, [0, 1], [1, 2])
    f.validate(path_graph)


def test_validate_rejects_non_mutual():
    neigh = np.array([[1, -1], [-1, -1]])
    with pytest.raises(FactorError, match="non-mutual"):
        Factor(neigh).validate()


def test_validate_rejects_out_of_range():
    with pytest.raises(FactorError, match="out of range"):
        Factor(np.array([[5, -1], [-1, -1]])).validate()


def test_validate_rejects_self_loop():
    with pytest.raises(FactorError, match="self-loop"):
        Factor(np.array([[0, -1], [-1, -1]])).validate()


def test_validate_rejects_duplicate_partner():
    with pytest.raises(FactorError, match="duplicate"):
        Factor(np.array([[1, 1], [0, 0]])).validate()


def test_validate_rejects_missing_graph_edge():
    g = prepare_graph(from_edges(3, [0], [1], [1.0]))
    f = Factor.from_edge_list(3, 2, [1], [2])
    with pytest.raises(FactorError, match="does not exist"):
        f.validate(g)


def test_equality_ignores_slot_order():
    a = Factor(np.array([[1, 2], [0, -1], [0, -1]]))
    b = Factor(np.array([[2, 1], [0, -1], [0, -1]]))
    assert a == b
    c = Factor(np.array([[1, -1], [0, -1], [-1, -1]]))
    assert a != c
