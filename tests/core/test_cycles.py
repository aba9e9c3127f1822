"""Unit tests for cycle identification and weakest-edge breaking."""

import numpy as np
import pytest

from repro.core import Factor, break_cycles, detect_cycles
from repro.core.coverage import factor_weight
from repro.graphs import random_02_factor, random_weighted_graph
from repro.sparse import from_edges, prepare_graph


def _ring(n, weights):
    u = np.arange(n)
    v = (u + 1) % n
    g = prepare_graph(from_edges(n, u, v, weights))
    f = Factor.from_edge_list(n, 2, u, v)
    return g, f


def test_detect_no_cycles(rng):
    from repro.graphs import random_linear_forest

    gt = random_linear_forest(40, rng)
    assert not detect_cycles(gt.factor).any()


def test_detect_ground_truth(rng):
    gt = random_02_factor(100, rng, cycle_fraction=0.6)
    np.testing.assert_array_equal(detect_cycles(gt.factor), gt.cycle_mask)


def test_break_single_cycle_removes_weakest():
    g, f = _ring(6, np.array([3.0, 4.0, 1.0, 5.0, 6.0, 2.0]))
    result = break_cycles(f, g)
    assert result.n_cycles == 1
    assert (result.removed_u[0], result.removed_v[0]) == (2, 3)  # weight 1.0
    assert result.forest.edge_count == 5
    assert not detect_cycles(result.forest).any()


def test_break_preserves_weight_maximally():
    """Breaking removes exactly the cycle minimum: ω drops by min weight."""
    weights = np.array([3.0, 4.0, 1.5, 5.0, 6.0, 2.0])
    g, f = _ring(6, weights)
    before = factor_weight(g, f)
    result = break_cycles(f, g)
    after = factor_weight(g, result.forest)
    assert before - after == pytest.approx(weights.min())


def test_break_multiple_cycles(rng):
    # two disjoint rings
    u = np.concatenate([np.arange(5), 5 + np.arange(7)])
    v = np.concatenate([(np.arange(5) + 1) % 5, 5 + (np.arange(7) + 1) % 7])
    w = rng.uniform(1.0, 9.0, 12)
    g = prepare_graph(from_edges(12, u, v, w))
    f = Factor.from_edge_list(12, 2, u, v)
    result = break_cycles(f, g)
    assert result.n_cycles == 2
    assert not detect_cycles(result.forest).any()
    # one removed edge per ring
    removed = set(zip(result.removed_u.tolist(), result.removed_v.tolist()))
    assert len(removed) == 2


def test_break_no_cycles_is_identity(rng):
    from repro.graphs import random_linear_forest

    gt = random_linear_forest(30, rng)
    g = random_weighted_graph(30, 10, rng)  # weights irrelevant
    result = break_cycles(gt.factor, g)
    assert result.n_cycles == 0
    assert result.forest == gt.factor


def test_tie_breaking_is_unique():
    """Equal weights: the (weight, min id, max id) triple still selects one
    edge, and both endpoints agree."""
    g, f = _ring(5, np.ones(5))
    result = break_cycles(f, g)
    assert result.n_cycles == 1
    # lexicographic minimum of equal weights: edge (0, 1)
    assert (result.removed_u[0], result.removed_v[0]) == (0, 1)


def test_triangle(triangle_plus_tail):
    # the [0,2]-factor picked the triangle; vertex 3 stayed a singleton
    f = Factor.from_edge_list(4, 2, [0, 1, 2], [1, 2, 0])
    result = break_cycles(f, triangle_plus_tail)
    assert result.n_cycles == 1
    # weakest triangle edge has weight 0.1 = edge (0, 1)
    assert (result.removed_u[0], result.removed_v[0]) == (0, 1)
    # the singleton is untouched
    assert result.forest.degrees[3] == 0


def test_mixed_paths_and_cycles_ground_truth(rng):
    gt = random_02_factor(80, rng, cycle_fraction=0.5)
    g = prepare_graph(
        from_edges(80, *gt.factor.edges(), rng.uniform(0.5, 2.0, gt.factor.edge_count))
    )
    result = break_cycles(gt.factor, g)
    assert result.n_cycles == len(gt.cycles)
    assert not detect_cycles(result.forest).any()
    # paths are untouched
    for path in gt.paths:
        for a, b in zip(path, path[1:]):
            assert result.forest.contains_edges(np.array([a]), np.array([b]))[0]


def test_removed_edges_match_rowwise_unique(rng):
    """The packed-key unique of ``break_cycles`` yields exactly the rows, the
    order and the dtype of a row-wise unique of the per-vertex (u, v) pairs,
    ties included."""
    from repro.core import BidirectionalScan, MinEdgeOperator

    for trial in range(25):
        n = int(rng.integers(3, 120))
        gt = random_02_factor(n, rng, cycle_fraction=float(rng.uniform(0.3, 1.0)))
        u, v = gt.factor.edges()
        if u.size == 0:
            continue
        # few distinct weights: many cycles resolve their minimum by id
        g = prepare_graph(from_edges(n, u, v, rng.integers(1, 4, u.size).astype(float)))
        scan = BidirectionalScan(gt.factor).run(MinEdgeOperator(), g)
        result = break_cycles(gt.factor, scan_result=scan)
        w, pu, pv = (scan.payload[k] for k in ("w", "u", "v"))
        lane = ((w[:, 1] < w[:, 0]) | (
            (w[:, 1] == w[:, 0])
            & ((pu[:, 1] < pu[:, 0]) | ((pu[:, 1] == pu[:, 0]) & (pv[:, 1] < pv[:, 0])))
        )).astype(np.int64)
        rows = np.arange(n)
        cyc = np.flatnonzero(scan.cycle_mask)
        pairs = np.unique(
            np.stack([pu[rows, lane][cyc], pv[rows, lane][cyc]], axis=1), axis=0
        )
        np.testing.assert_array_equal(result.removed_u, pairs[:, 0])
        np.testing.assert_array_equal(result.removed_v, pairs[:, 1])
        assert result.removed_u.dtype == result.removed_v.dtype == pairs.dtype
        assert result.n_cycles == len(gt.cycles)
