"""Property tests: the weakest-edge key against the paper's triple.

:class:`~repro.core.scan.MinEdgeOperator` carries one int64 key per lane,
the dense rank of the lane's (|weight|, min id, max id) triple, reduces it
with ``np.minimum`` and decodes it after the last launch.
:class:`~repro.core.ablations.TripleMinEdgeOperator` carries the triple
itself through every launch with the paper's lexicographic ⊕.  The two must
give the same lane pointers, the same ``w``/``u``/``v`` bits, the same
launches and the same removed edges: solo and fused with positions, on
``BidirectionalScan`` over a ``Device`` and a ``DeviceGroup(3)`` under every
compaction policy, and on ``ReferenceScan``.  The draws cover cycles of
many lengths among paths; distinct weights, few distinct weights and one
weight for every edge; +inf weights; float32 graphs; [0,1]-factors;
arbitrary neighbour arrays (asymmetric, self-loops, repeated partners);
and N = 0 and N = 1.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AddOperator,
    BidirectionalScan,
    Factor,
    FusedOperator,
    MinEdgeOperator,
    break_cycles,
)
from repro.core.ablations import ReferenceScan, TripleMinEdgeOperator
from repro.core.partition import VertexPartition
from repro.device import Device, DeviceGroup
from repro.errors import ScanError
from repro.sparse import CSRMatrix, from_edges, prepare_graph

POLICIES = ("eager", "never", "adaptive")
#: cycle lengths that are powers of two stall their lanes at stride L/2
POWERS_OF_TWO = (4, 8, 16, 32)
WEIGHTS = ("distinct", "few", "one", "inf")


def draw_weights(rng, size, mode):
    if mode == "distinct":
        return rng.uniform(0.5, 5.0, size)
    if mode == "few":
        return rng.integers(1, 4, size).astype(float)
    if mode == "one":  # ecology1: every edge ties, the ids decide
        return np.full(size, 2.0)
    w = rng.integers(1, 3, size).astype(float)
    w[rng.random(size) < 0.5] = np.inf
    return w


def edge_graph(n, u, v, w, dtype):
    return prepare_graph(from_edges(n, u, v, w)).astype(dtype)


def scans(factor, seed):
    """Factories of every engine placement the key must agree on."""
    n = factor.n_vertices
    cuts = np.sort(np.random.default_rng(seed).integers(0, n + 1, 2))
    partition = VertexPartition(np.array([0, cuts[0], cuts[1], n]))
    for policy in POLICIES:
        yield lambda policy=policy: BidirectionalScan(
            factor, device=Device(), compaction=policy
        )
        yield lambda policy=policy: BidirectionalScan(
            factor, device=DeviceGroup(3), compaction=policy, partition=partition
        )
    yield lambda: ReferenceScan(factor, device=Device())


def removed(factor, result):
    """``break_cycles``' outcome, or its refusal (a cycle of +inf edges)."""
    try:
        broken = break_cycles(factor, scan_result=result)
    except ScanError as exc:
        return str(exc)
    return broken.removed_u.tolist(), broken.removed_v.tolist(), broken.forest.neighbors.tolist()


def assert_key_matches_triple(factor, graph, seed):
    for make in scans(factor, seed):
        for key_op, triple_op in (
            (MinEdgeOperator(), TripleMinEdgeOperator()),
            (
                FusedOperator((MinEdgeOperator(), AddOperator())),
                FusedOperator((TripleMinEdgeOperator(), AddOperator())),
            ),
        ):
            key = make().run(key_op, graph)
            triple = make().run(triple_op, graph)
            assert np.array_equal(key.q, triple.q)
            assert list(key.payload) == list(triple.payload)
            for name, want in triple.payload.items():
                got = key.payload[name]
                assert got.dtype == want.dtype and got.shape == want.shape, name
                assert got.tobytes() == want.tobytes(), name
            assert (key.launches, key.active_per_launch) == (
                triple.launches,
                triple.active_per_launch,
            )
            assert removed(factor, key) == removed(factor, triple)


@st.composite
def paths_and_cycles(draw):
    cycles = draw(
        st.lists(st.one_of(st.integers(3, 40), st.sampled_from(POWERS_OF_TWO)), max_size=5)
    )
    paths = draw(st.lists(st.integers(1, 20), max_size=5))
    if not cycles and not paths:
        paths = [1]
    weights = draw(st.sampled_from(WEIGHTS))
    dtype = draw(st.sampled_from((np.float64, np.float32)))
    return paths, cycles, weights, dtype, draw(st.integers(0, 2**32 - 1))


def build_factor(paths, cycles, seed):
    rng = np.random.default_rng(seed)
    n = sum(paths) + sum(cycles)
    order = rng.permutation(n)
    u, v, start = [], [], 0
    for length, closed in [(p, False) for p in paths] + [(c, True) for c in cycles]:
        members = order[start : start + length]
        start += length
        u.extend(members[:-1])
        v.extend(members[1:])
        if closed:
            u.append(members[-1])
            v.append(members[0])
    return n, np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64), rng


@given(paths_and_cycles())
@settings(max_examples=40, deadline=None)
def test_key_equals_the_triple_on_paths_and_cycles(case):
    paths, cycles, weights, dtype, seed = case
    n, u, v, rng = build_factor(paths, cycles, seed)
    factor = Factor.from_edge_list(n, 2, u, v)
    graph = edge_graph(n, u, v, draw_weights(rng, u.size, weights), dtype)
    assert_key_matches_triple(factor, graph, seed)


@given(
    st.integers(1, 30),
    st.sampled_from(WEIGHTS),
    st.sampled_from((np.float64, np.float32)),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=20, deadline=None)
def test_key_equals_the_triple_on_one_slot_factors(n, weights, dtype, seed):
    """A [0,1]-factor (a matching): lane 1 is missing everywhere."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    pairs = order[: 2 * int(rng.integers(0, n // 2 + 1))].reshape(-1, 2)
    u, v = pairs[:, 0], pairs[:, 1]
    factor = Factor.from_edge_list(n, 1, u, v)
    graph = edge_graph(n, u, v, draw_weights(rng, u.size, weights), dtype)
    assert_key_matches_triple(factor, graph, seed)


@given(
    st.integers(1, 40),
    st.sampled_from(WEIGHTS),
    st.sampled_from((np.float64, np.float32)),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=30, deadline=None)
def test_key_equals_the_triple_on_arbitrary_neighbour_arrays(n, weights, dtype, seed):
    """Any ``(N, 2)`` partner array: asymmetric, with self-loops and repeated
    partners, over a directed graph, so the two lanes of one edge may read
    different weights, or 0 where the graph lacks the entry."""
    rng = np.random.default_rng(seed)
    neighbors = rng.integers(-1, n, size=(n, 2))
    factor = Factor(neighbors)
    rows = np.repeat(np.arange(n), 2)
    cols = neighbors.reshape(-1)
    keep = (cols >= 0) & (rng.random(2 * n) < 0.8)
    w = draw_weights(rng, int(keep.sum()), weights)
    graph = from_edges(n, rows[keep], cols[keep], w, symmetric=False).astype(dtype)
    assert_key_matches_triple(factor, graph, seed)


@pytest.mark.parametrize(
    "neighbors",
    [
        np.empty((0, 2), dtype=np.int64),  # N = 0
        np.array([[-1, -1]]),  # N = 1, alone
        np.array([[0, -1]]),  # N = 1, a self-loop
        np.array([[0, 0]]),  # N = 1, the self-loop twice
    ],
    ids=["empty", "singleton", "self-loop", "self-loop-twice"],
)
def test_key_equals_the_triple_on_the_smallest_factors(neighbors):
    factor = Factor(neighbors)
    n = factor.n_vertices
    graph = prepare_graph(from_edges(n, [], [], []))
    assert_key_matches_triple(factor, graph, 0)


def test_key_order_is_the_triple_order():
    """Compare every pair of lanes: key order is the lexicographic order of
    the triples, missing lanes last, after the +inf edges."""
    u = np.array([0, 1, 2, 3, 5, 6, 7])
    v = np.array([1, 2, 3, 4, 6, 7, 8])
    w = np.array([2.0, 2.0, np.inf, 1.0, np.inf, 2.0, 1.0])
    factor = Factor.from_edge_list(10, 2, u, v)
    graph = edge_graph(10, u, v, w, np.float64)
    key = MinEdgeOperator().init(factor, graph)["key"].reshape(-1)
    triples = TripleMinEdgeOperator().init(factor, graph)
    lanes = list(zip(*(triples[name].reshape(-1).tolist() for name in "wuv")))
    for i, a in enumerate(lanes):
        for j, b in enumerate(lanes):
            assert (key[i] < key[j]) == (a < b)
            assert (key[i] == key[j]) == (a == b)
    # the keys are dense ranks: 0..(distinct triples), the missing lanes' last
    assert np.array_equal(np.unique(key), np.arange(len(set(lanes))))


def test_nan_weight_is_refused():
    """A NaN has no rank.  ``prepare_graph`` drops NaN entries, so only a
    graph built around it can hand the scan one."""
    u, v = np.array([0, 1, 2]), np.array([1, 2, 0])
    factor = Factor.from_edge_list(3, 2, u, v)
    valid = from_edges(3, u, v, np.array([1.0, 2.0, 3.0]))
    data = np.where(valid.data == 2.0, np.nan, valid.data)
    poisoned = CSRMatrix(valid.indptr, valid.indices, data, valid.shape)
    with pytest.raises(ScanError, match="NaN"):
        BidirectionalScan(factor).run(MinEdgeOperator(), poisoned)
    with pytest.raises(ScanError, match="NaN"):
        BidirectionalScan(factor).run(FusedOperator((MinEdgeOperator(), AddOperator())), poisoned)
    # the prepared graph has lost the entry: the lane reads weight 0
    result = BidirectionalScan(factor).run(MinEdgeOperator(), prepare_graph(poisoned))
    oracle = BidirectionalScan(factor).run(TripleMinEdgeOperator(), prepare_graph(poisoned))
    assert result.payload["w"].tobytes() == oracle.payload["w"].tobytes()
    assert result.payload["w"].min() == 0.0
