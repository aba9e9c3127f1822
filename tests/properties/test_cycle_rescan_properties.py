"""Property tests: positions for the broken cycles only.

``identify_paths(forest, scan_result=fused)`` keeps the fused pass's lanes
for every vertex off a cycle and jumps only the broken cycles' lanes
(``BidirectionalScan.run_from``).  It must equal the full position scan of
the broken forest, ``identify_paths(broken.forest)``, on every [0,2]-factor,
on one device and on a three-device group whose partition cuts through
cycles, under every compaction policy.  The lanes themselves must equal the
full scan's, so the restarted scan is a full scan restricted to the lanes
that change.
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
    identify_paths,
)
from repro.core.partition import VertexPartition
from repro.device import Device, DeviceGroup
from repro.errors import ScanError
from repro.sparse import from_edges, prepare_graph

POLICIES = ("eager", "never", "adaptive")
#: cycle lengths that are powers of two stall their lanes at stride L/2
POWERS_OF_TWO = (4, 8, 16, 32, 64)


def build_case(paths, cycles, seed):
    """A [0,2]-factor of the given path and cycle lengths, vertices shuffled,
    and a graph of its edges whose weights tie often."""
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
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    factor = Factor.from_edge_list(n, 2, u, v)
    graph = prepare_graph(from_edges(n, u, v, rng.integers(1, 4, u.size).astype(float)))
    return factor, graph


def placements(n, seed):
    """One device, then a three-device group cut at random vertices."""
    yield Device(), None
    rng = np.random.default_rng(seed)
    cuts = np.sort(rng.integers(0, n + 1, 2))
    yield DeviceGroup(3), VertexPartition(np.array([0, cuts[0], cuts[1], n]))


def assert_cycle_rescan_matches(factor, graph, seed):
    forest_ref = None
    for policy in POLICIES:
        for device, partition in placements(factor.n_vertices, seed):
            fused = BidirectionalScan(
                factor, device=device, compaction=policy, partition=partition
            ).run(FusedOperator((MinEdgeOperator(), AddOperator())), graph)
            broken = break_cycles(factor, scan_result=fused)
            if forest_ref is None:
                forest_ref = broken.forest
                expected = identify_paths(forest_ref)
            assert broken.forest == forest_ref
            got = identify_paths(
                broken.forest, device=device, compaction=policy,
                partition=partition, scan_result=fused,
            )
            assert np.array_equal(got.path_id, expected.path_id)
            assert np.array_equal(got.position, expected.position)

            def scan():
                return BidirectionalScan(
                    broken.forest, device=device, compaction=policy, partition=partition
                )

            full = scan().run(AddOperator())
            lanes = scan().run_from(AddOperator(), fused, np.flatnonzero(fused.cycle_mask))
            assert np.array_equal(lanes.q, full.q)
            assert np.array_equal(lanes.payload["r"], full.payload["r"])
            assert lanes.launches <= full.launches


@st.composite
def mixed_factors(draw):
    cycles = draw(
        st.lists(st.one_of(st.integers(3, 20), st.sampled_from(POWERS_OF_TWO)), max_size=6)
    )
    paths = draw(st.lists(st.integers(1, 20), max_size=6))
    if not cycles and not paths:
        paths = [1]
    return paths, cycles, draw(st.integers(0, 2**32 - 1))


@given(mixed_factors())
@settings(max_examples=30, deadline=None)
def test_cycle_rescan_equals_the_full_position_scan(case):
    paths, cycles, seed = case
    factor, graph = build_case(paths, cycles, seed)
    assert_cycle_rescan_matches(factor, graph, seed)


@pytest.mark.parametrize(
    "paths, cycles",
    [
        ([], [64]),  # one cycle is the whole factor, a power of two
        ([], [3]),
        ([], [37]),
        ([], list(POWERS_OF_TWO)),
        ([], [3] * 30),  # many 3-cycles
        ([1, 2, 5, 17, 40], [3, 8, 12, 33]),  # paths mixed with cycles
        ([7, 64], []),  # no cycle: the fused pass holds every position
    ],
    ids=["one-64-cycle", "one-3-cycle", "one-37-cycle", "powers-of-two",
         "many-3-cycles", "paths-and-cycles", "acyclic"],
)
@pytest.mark.parametrize("seed", [0, 1])
def test_named_cycle_rescan_cases(paths, cycles, seed):
    factor, graph = build_case(paths, cycles, seed)
    assert_cycle_rescan_matches(factor, graph, seed)


def test_acyclic_factor_runs_no_second_scan():
    factor, graph = build_case([5, 9], [], 3)
    fused = BidirectionalScan(factor).run(
        FusedOperator((MinEdgeOperator(), AddOperator())), graph
    )
    dev = Device()
    identify_paths(factor, device=dev, scan_result=fused)
    assert dev.launch_count == 0


def test_scan_without_positions_is_refused():
    factor, graph = build_case([4], [5], 0)
    weakest = BidirectionalScan(factor).run(MinEdgeOperator(), graph)
    forest = break_cycles(factor, scan_result=weakest).forest
    with pytest.raises(ScanError, match="'r'"):
        identify_paths(forest, scan_result=weakest)
    acyclic, graph = build_case([4, 6], [], 0)
    with pytest.raises(ScanError, match="'r'"):
        identify_paths(acyclic, scan_result=BidirectionalScan(acyclic).run(MinEdgeOperator(), graph))


def test_scan_of_another_vertex_count_is_refused():
    factor, graph = build_case([4], [5], 0)
    fused = BidirectionalScan(factor).run(
        FusedOperator((MinEdgeOperator(), AddOperator())), graph
    )
    other, _ = build_case([4, 1], [5], 0)
    with pytest.raises(ScanError, match="vertices"):
        identify_paths(other, scan_result=fused)
    with pytest.raises(ScanError, match="lane state"):
        BidirectionalScan(other).run_from(AddOperator(), fused, [0])
