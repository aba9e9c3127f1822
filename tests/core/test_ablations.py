"""Unit tests for the ablation variants (DESIGN.md D2-D4 + ping-pong)."""

import numpy as np
import pytest

from repro.core import (
    AddOperator,
    BidirectionalScan,
    Factor,
    ParallelFactorConfig,
    break_cycles,
    coverage,
    identify_paths,
    parallel_factor,
)
from repro.core.ablations import (
    ReferenceScan,
    UnsafeInPlaceScan,
    merged_linear_forest,
    propose_accept_factor,
    propose_edges_segmented_sort,
)
from repro.core.factor import propose_edges
from repro.core.structures import NO_PARTNER
from repro.device import DeviceGroup
from repro.errors import ScanError
from repro.graphs import random_02_factor, random_weighted_graph
from repro.sparse import from_edges, prepare_graph


# --- D3: merged scan --------------------------------------------------------


def _factor_with_graph(n, rng, cycle_fraction=0.5):
    gt = random_02_factor(n, rng, cycle_fraction=cycle_fraction)
    u, v = gt.factor.edges()
    graph = prepare_graph(from_edges(n, u, v, rng.uniform(0.5, 5.0, u.size)))
    return gt, graph


def test_merged_equals_two_pass_on_paths(rng):
    gt, graph = _factor_with_graph(50, rng, cycle_fraction=0.0)
    merged = merged_linear_forest(gt.factor, graph)
    info = identify_paths(gt.factor)
    np.testing.assert_array_equal(merged.paths.path_id, info.path_id)
    np.testing.assert_array_equal(merged.paths.position, info.position)
    assert merged.forest == gt.factor


@pytest.mark.parametrize("cycle_len", [3, 4, 5, 6, 7, 8, 16, 17])
def test_merged_handles_single_cycle(cycle_len):
    rng = np.random.default_rng(cycle_len)
    u = np.arange(cycle_len)
    v = (u + 1) % cycle_len
    w = rng.permutation(cycle_len) + 1.0
    graph = prepare_graph(from_edges(cycle_len, u, v, w))
    factor = Factor.from_edge_list(cycle_len, 2, u, v)
    merged = merged_linear_forest(factor, graph)
    broken = break_cycles(factor, graph)
    info = identify_paths(broken.forest)
    assert merged.forest == broken.forest
    np.testing.assert_array_equal(merged.paths.path_id, info.path_id)
    np.testing.assert_array_equal(merged.paths.position, info.position)


def test_merged_equals_two_pass_random(rng):
    for _ in range(10):
        n = int(rng.integers(3, 120))
        gt, graph = _factor_with_graph(n, rng)
        merged = merged_linear_forest(gt.factor, graph)
        broken = break_cycles(gt.factor, graph)
        info = identify_paths(broken.forest)
        assert merged.forest == broken.forest
        np.testing.assert_array_equal(merged.paths.path_id, info.path_id)
        np.testing.assert_array_equal(merged.paths.position, info.position)


def test_merged_moves_more_bytes_per_step(rng):
    """The paper's rationale for separate scans: the merged payload is wider."""
    from repro.device import Device

    gt, graph = _factor_with_graph(64, rng)
    dev_m = Device()
    merged_linear_forest(gt.factor, graph, device=dev_m)
    dev_s = Device()
    broken = break_cycles(gt.factor, graph, device=dev_s)
    identify_paths(broken.forest, device=dev_s)
    merged_bytes_per_launch = dev_m.total_bytes("bidirectional-scan") / max(
        1, len(dev_m.records("bidirectional-scan"))
    )
    split_bytes_per_launch = dev_s.total_bytes("bidirectional-scan") / max(
        1, len(dev_s.records("bidirectional-scan"))
    )
    assert merged_bytes_per_launch > split_bytes_per_launch


# --- D2: propose/accept -----------------------------------------------------


def test_propose_accept_invariants(rng):
    g = random_weighted_graph(60, 250, rng)
    res = propose_accept_factor(g, ParallelFactorConfig(n=2, max_iterations=10))
    res.factor.validate(g)
    assert int(res.factor.degrees.max(initial=0)) <= 2


def test_propose_accept_confirms_at_least_mutual(rng):
    """Acceptance subsumes mutual confirmation: in the first round every
    mutually proposed edge is also accepted, so progress is at least as
    fast."""
    g = random_weighted_graph(80, 400, rng)
    cfg = ParallelFactorConfig(n=2, max_iterations=1, m=1, k_m=0)
    mutual = parallel_factor(g, cfg)
    accept = propose_accept_factor(g, cfg)
    assert accept.factor.size >= mutual.factor.size


# --- D4: segmented-sort proposition -------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_segmented_sort_matches_topn(rng, n):
    g = random_weighted_graph(50, 300, rng)
    confirmed = np.full((50, n), NO_PARTNER, dtype=np.int64)
    # seed some confirmed edges via one proposition round
    res = parallel_factor(g, ParallelFactorConfig(n=n, max_iterations=1))
    confirmed = res.factor.neighbors.copy()
    from repro.core.charge import vertex_charges

    charges = vertex_charges(50, 1)
    a = propose_edges(g, confirmed, n, charges=charges)
    b = propose_edges_segmented_sort(g, confirmed, n, charges=charges)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


def test_segmented_sort_matches_topn_with_ties(rng):
    u = rng.integers(0, 30, 120)
    v = rng.integers(0, 30, 120)
    keep = u != v
    g = prepare_graph(
        from_edges(30, u[keep], v[keep], np.ones(int(keep.sum())))
    )
    confirmed = np.full((30, 2), NO_PARTNER, dtype=np.int64)
    a = propose_edges(g, confirmed, 2)
    b = propose_edges_segmented_sort(g, confirmed, 2)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


# --- ping-pong necessity ------------------------------------------------------


def test_unsafe_in_place_scan_corrupts_results():
    """Section 4.2's claim: without double buffering, neighbours observe
    half-updated tuples.  On a long path the in-place variant must disagree
    with the correct scan (deterministically, given id-order updates)."""
    n = 64
    f = Factor.from_edge_list(n, 2, np.arange(n - 1), np.arange(1, n))
    safe = BidirectionalScan(f).run(AddOperator())
    unsafe = UnsafeInPlaceScan(f).run(AddOperator())
    assert not np.array_equal(safe.payload["r"], unsafe.payload["r"])


def test_reference_scan_refuses_a_device_group():
    """The exhaustive scan launches on one device: a group is refused by
    name, not with an AttributeError from the missing ``launch``."""
    f = Factor.from_edge_list(8, 2, np.arange(7), np.arange(1, 8))
    with pytest.raises(ScanError, match="one device, not a DeviceGroup of 3"):
        ReferenceScan(f, device=DeviceGroup(3)).run(AddOperator())
    # the in-place ablation never launches, so a group does not bother it
    unsafe = UnsafeInPlaceScan(f, device=DeviceGroup(3)).run(AddOperator())
    np.testing.assert_array_equal(unsafe.q, UnsafeInPlaceScan(f).run(AddOperator()).q)


def test_unsafe_scan_harmless_on_singletons():
    f = Factor.empty(5, 2)
    safe = BidirectionalScan(f).run(AddOperator())
    unsafe = UnsafeInPlaceScan(f).run(AddOperator())
    np.testing.assert_array_equal(safe.q, unsafe.q)
