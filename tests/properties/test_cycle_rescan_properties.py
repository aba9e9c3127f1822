"""Property tests: positions for the broken cycles only.

``identify_paths(forest, scan_result=fused)`` keeps the fused pass's lanes
for every vertex off a cycle and jumps only the broken cycles' lanes
(``BidirectionalScan.run_from``).  It must equal the full position scan of
the broken forest, ``identify_paths(broken.forest)``, on every [0,2]-factor,
on one device and on a three-device group whose partition cuts through
cycles, under every compaction policy.  The lanes themselves must equal the
full scan's, so the restarted scan is a full scan restricted to the lanes
that change.

Every case also runs the pipeline's pass, ``labelled_pass()``, whose cycle
labels ``break_cycles`` reduces with one segmented minimum over the cycle
edges: it must break exactly the edges the weakest-edge pass breaks, with
the same launches, and give the same positions.
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
from repro.core.cycles import labelled_pass
from repro.core.partition import VertexPartition
from repro.device import Device, DeviceGroup
from repro.errors import ScanError
from repro.sparse import COOMatrix, CSRMatrix, from_edges, prepare_graph

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


def assert_same_broken(got, want):
    """Two ``BrokenCycles`` agree field for field, dtypes included."""
    assert got.forest == want.forest
    for name in ("removed_u", "removed_v", "cycle_mask"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype
        assert np.array_equal(a, b), name


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

            labelled = BidirectionalScan(
                factor, device=device, compaction=policy, partition=partition
            ).run(labelled_pass(), graph)
            assert labelled.launches == fused.launches
            assert labelled.active_per_launch == fused.active_per_launch
            assert_same_broken(break_cycles(factor, graph, scan_result=labelled), broken)
            got = identify_paths(
                broken.forest, device=device, compaction=policy,
                partition=partition, scan_result=labelled,
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


# ---------------------------------------------------------------------------
# the labelled pass against the weakest-edge pass, named cases
# ---------------------------------------------------------------------------


def both_breaks(factor, graph):
    """``break_cycles`` on the weakest-edge pass and on the labelled pass."""
    weakest = FusedOperator((MinEdgeOperator(), AddOperator()))
    fused = BidirectionalScan(factor).run(weakest, graph)
    labelled = BidirectionalScan(factor).run(labelled_pass(), graph)
    return (
        break_cycles(factor, scan_result=fused),
        break_cycles(factor, graph, scan_result=labelled),
    )


def test_a_cycle_of_infinite_edges_is_refused_alike():
    factor, _ = build_case([3], [5], 0)
    u, v = factor.edges()
    graph = prepare_graph(from_edges(factor.n_vertices, u, v, np.full(u.size, np.inf)))
    messages = []
    for operator in (FusedOperator((MinEdgeOperator(), AddOperator())), labelled_pass()):
        result = BidirectionalScan(factor).run(operator, graph)
        with pytest.raises(ScanError, match="resolved weakest edge") as err:
            break_cycles(factor, graph, scan_result=result)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


def symmetric_csr(n, u, v, w):
    """Both directions of every edge, stored as given: no entry is dropped."""
    return COOMatrix(
        np.concatenate([u, v]), np.concatenate([v, u]), np.concatenate([w, w]), (n, n)
    ).to_csr()


def test_a_nan_cycle_edge_is_refused():
    factor, _ = build_case([3], [5], 0)
    u, v = factor.edges()
    w = np.ones(u.size)
    cyc = np.flatnonzero(BidirectionalScan(factor).run(AddOperator()).cycle_mask)
    w[np.flatnonzero(np.isin(u, cyc))[0]] = np.nan
    graph = symmetric_csr(factor.n_vertices, u, v, w)
    assert np.isnan(graph.data).sum() == 2
    labelled = BidirectionalScan(factor).run(labelled_pass())
    with pytest.raises(ScanError, match="NaN weight"):
        break_cycles(factor, graph, scan_result=labelled)
    with pytest.raises(ScanError, match="NaN weight"):
        break_cycles(factor, graph)


def asymmetric_rings(lengths, light):
    """Rings of the given lengths over consecutive ids, every entry 1.0 but
    the directed ``light`` ones (0.5) and their mirrors (3.0)."""
    first = np.cumsum([0] + list(lengths))
    u = np.arange(first[-1])
    v = np.concatenate([np.roll(np.arange(a, b), -1) for a, b in zip(first, first[1:])])
    factor = Factor.from_edge_list(int(first[-1]), 2, u, v)
    graph = symmetric_csr(factor.n_vertices, u, v, np.ones(u.size))
    rows = graph.nnz_rows
    for x, y in light:
        graph.data[(rows == x) & (graph.indices == y)] = 0.5
        graph.data[(rows == y) & (graph.indices == x)] = 3.0
    assert not graph.is_symmetric()
    return factor, graph


def test_an_asymmetric_graph_breaks_the_edge_its_lanes_break():
    """Each cycle's weakest edge is light in one direction only: the 5-cycle
    0..4 reads 0.5 on (2, 1), the 7-cycle 5..11 on (6, 7).  Weighing either
    direction alone breaks another edge of one of them."""
    factor, graph = asymmetric_rings([5, 7], [(2, 1), (6, 7)])
    want, got = both_breaks(factor, graph)
    assert_same_broken(got, want)
    assert_same_broken(break_cycles(factor, graph), want)
    assert want.removed_u.tolist() == [1, 6]
    assert want.removed_v.tolist() == [2, 7]


def test_an_asymmetric_power_of_two_cycle_loses_one_edge():
    """A lane of a power-of-two cycle stalls at half of it, so no single
    lane reaches every edge of the cycle; the labels still name the whole
    cycle, each lane weighs both directions of its edges, and the cycle
    loses its weakest edge alone in both forms."""
    factor, graph = asymmetric_rings([4, 8], [(1, 0), (6, 7)])
    want, got = both_breaks(factor, graph)
    assert_same_broken(got, want)
    assert_same_broken(break_cycles(factor, graph), want)
    assert want.removed_u.tolist() == [0, 6]
    assert want.removed_v.tolist() == [1, 7]


@given(mixed_factors())
@settings(max_examples=30, deadline=None)
def test_both_breaks_agree_when_each_direction_weighs_its_own(case):
    """The graph of a ``build_case`` factor with each direction's weight
    drawn on its own: the paper form and the labelled form break the same
    edges under every policy."""
    paths, cycles, seed = case
    factor, _ = build_case(paths, cycles, seed)
    u, v = factor.edges()
    w = np.random.default_rng(seed).integers(1, 4, 2 * u.size).astype(float)
    graph = COOMatrix(
        np.concatenate([u, v]), np.concatenate([v, u]), w,
        (factor.n_vertices, factor.n_vertices),
    ).to_csr()
    want = None
    for policy in POLICIES:
        fused = BidirectionalScan(factor, compaction=policy).run(
            FusedOperator((MinEdgeOperator(), AddOperator())), graph
        )
        labelled = BidirectionalScan(factor, compaction=policy).run(labelled_pass(), graph)
        paper = break_cycles(factor, scan_result=fused)
        if want is None:
            want = paper
        assert_same_broken(paper, want)
        assert_same_broken(break_cycles(factor, graph, scan_result=labelled), want)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_float32_graph_breaks_alike(seed):
    factor, _ = build_case([2, 9], [3, 4, 8, 13, 16], seed)
    u, v = factor.edges()
    weights = np.random.default_rng(seed).uniform(0.1, 1.0, u.size)
    graph = prepare_graph(from_edges(factor.n_vertices, u, v, weights)).astype(np.float32)
    assert graph.dtype == np.float32
    want, got = both_breaks(factor, graph)
    assert_same_broken(got, want)


def test_a_labelled_result_needs_the_graph():
    factor, _ = build_case([4], [5], 0)
    labelled = BidirectionalScan(factor).run(labelled_pass())
    with pytest.raises(ScanError, match="graph"):
        break_cycles(factor, scan_result=labelled)


def test_the_labelled_break_reads_only_cycle_edges(monkeypatch):
    """An acyclic factor reads no weight; a cyclic one reads its cycle edges
    once per direction."""
    read = []
    gather = CSRMatrix.gather

    def counted(self, rows, cols):
        read.append(len(rows))
        return gather(self, rows, cols)

    monkeypatch.setattr(CSRMatrix, "gather", counted)
    acyclic, graph = build_case([5, 9], [], 3)
    labelled = BidirectionalScan(acyclic).run(labelled_pass())
    assert break_cycles(acyclic, graph, scan_result=labelled).n_cycles == 0
    assert read == []
    factor, graph = build_case([5, 9], [4, 7], 3)
    labelled = BidirectionalScan(factor).run(labelled_pass())
    assert break_cycles(factor, graph, scan_result=labelled).n_cycles == 2
    assert sum(read) == 2 * (4 + 7)
