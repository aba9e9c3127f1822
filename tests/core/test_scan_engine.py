"""Convergence-aware scan engine: equivalence oracle, fusion, reuse wiring.

The convergence-aware :class:`~repro.core.scan.BidirectionalScan` (early
exit + frontier compaction) must be *bit-identical* to the exhaustive
paper formulation, preserved as :class:`~repro.core.ablations.ReferenceScan`.
These tests pin that down over the oracle topologies — random [0,2]-factors,
all-singleton, all-one-cycle and the single-N-vertex-path worst case — and
over inputs no valid factor produces (arbitrary asymmetric neighbour arrays,
Fortran-ordered payloads), plus the :class:`~repro.core.scan.FusedOperator`
API and the scan-result reuse wiring of
``break_cycles``/``detect_cycles``/``extract_linear_forest``.
"""

import numpy as np
import pytest

from repro.core import (
    AddOperator,
    BidirectionalScan,
    Factor,
    FusedOperator,
    MinEdgeOperator,
    ParallelFactorConfig,
    break_cycles,
    detect_cycles,
    extract_linear_forest,
    identify_paths,
    paths_from_scan,
)
from repro.core.ablations import ReferenceScan
from repro.core.scan import (
    MaxVertexOperator,
    NullOperator,
    WeightedAddOperator,
    operator_label,
    scan_steps,
)
from repro.device import Device, DeviceGroup
from repro.errors import ScanError
from repro.graphs import build_matrix, random_02_factor
from repro.sparse import from_edges, prepare_graph


def _weighted(factor, rng):
    u, v = factor.edges()
    if u.size == 0:
        return None
    return prepare_graph(
        from_edges(factor.n_vertices, u, v, rng.uniform(0.5, 5.0, u.size))
    )


def _assert_results_identical(a, b):
    np.testing.assert_array_equal(a.q, b.q)
    assert set(a.payload) == set(b.payload)
    for name in b.payload:
        np.testing.assert_array_equal(a.payload[name], b.payload[name])
    np.testing.assert_array_equal(a.cycle_mask, b.cycle_mask)


# ---------------------------------------------------------------------------
# old-vs-new equivalence over the oracle topologies
# ---------------------------------------------------------------------------


def test_equivalence_random_02_factors(rng):
    """Property-style sweep: every operator, random path/cycle mixes."""
    for trial in range(30):
        n = int(rng.integers(1, 90))
        frac = float(rng.uniform(0.0, 1.0))
        gt = random_02_factor(n, rng, cycle_fraction=frac)
        graph = _weighted(gt.factor, rng)
        for operator in (AddOperator(), NullOperator(), MaxVertexOperator()):
            new = BidirectionalScan(gt.factor).run(operator)
            old = ReferenceScan(gt.factor).run(operator)
            _assert_results_identical(new, old)
            assert new.launches <= old.launches == old.steps
        if graph is not None:
            for operator in (MinEdgeOperator(), WeightedAddOperator()):
                new = BidirectionalScan(gt.factor).run(operator, graph)
                old = ReferenceScan(gt.factor).run(operator, graph)
                _assert_results_identical(new, old)


def test_equivalence_all_singletons():
    factor = Factor.empty(17, 2)
    new = BidirectionalScan(factor).run(AddOperator())
    old = ReferenceScan(factor).run(AddOperator())
    _assert_results_identical(new, old)
    # nothing to do: the initial state is already fully clamped
    assert new.launches == 0
    assert old.launches == old.steps == scan_steps(17)


def test_equivalence_single_giant_path():
    """The worst case of the paper's bound: no early exit possible."""
    n = 128
    order = list(range(n))
    factor = Factor.from_edge_list(n, 2, order[:-1], order[1:])
    new = BidirectionalScan(factor).run(AddOperator())
    old = ReferenceScan(factor).run(AddOperator())
    _assert_results_identical(new, old)
    assert new.launches == old.launches == scan_steps(n) == 7


@pytest.mark.parametrize("length", [3, 4, 8, 13, 16, 31])
def test_equivalence_all_one_cycle(length):
    rng = np.random.default_rng(length)
    u = np.arange(length)
    v = (u + 1) % length
    graph = prepare_graph(from_edges(length, u, v, rng.permutation(length) + 1.0))
    factor = Factor.from_edge_list(length, 2, u, v)
    new = BidirectionalScan(factor).run(MinEdgeOperator(), graph)
    old = ReferenceScan(factor).run(MinEdgeOperator(), graph)
    _assert_results_identical(new, old)
    # cycle lanes never clamp — no early exit
    assert new.launches == old.launches == scan_steps(length)


def test_mid_scan_steps_are_identical(rng):
    """Equivalence holds at every intermediate step, not just the fixpoint."""
    gt = random_02_factor(40, rng, cycle_fraction=0.4)
    for steps in range(scan_steps(40) + 1):
        new = BidirectionalScan(gt.factor).run(AddOperator(), steps=steps)
        old = ReferenceScan(gt.factor).run(AddOperator(), steps=steps)
        _assert_results_identical(new, old)


# ---------------------------------------------------------------------------
# Algorithm 3's j-loop on inputs the valid-factor sweeps never produce
# ---------------------------------------------------------------------------


def test_asymmetric_factor_combines_both_far_entries():
    """Vertex 1's pair holds two path-end markers, so both of its entries
    extend vertex 0's lane and the sequential j-loop combines twice."""
    factor = Factor(np.array([[1, -1], [-1, -1]]))
    for engine in (BidirectionalScan, ReferenceScan):
        assert engine(factor).run(AddOperator()).payload["r"][0, 0] == 3
    # one launch, one active entry, int64 state, and under eager compaction
    # no dead candidates; each j-step is metered as it always was.  Reads:
    # the entry's id and far pointer (16), the far q and r pairs (32), and r
    # once per j-step (2 * 8).  Writes: r and q once per j-step (2 * 16).
    dev = Device()
    BidirectionalScan(factor, device=dev, compaction="eager").run(AddOperator())
    (record,) = dev.kernels
    assert (record.bytes_read, record.bytes_written) == (64, 32)


@pytest.mark.parametrize("devices", [1, 3])
def test_equivalence_arbitrary_neighbour_arrays(rng, devices):
    """``BidirectionalScan`` accepts an unvalidated factor: any ``(N, 2)``
    neighbour array, asymmetric, with self-loops and repeated entries.
    Wherever both far entries differ from ``v``, both j-steps combine, in
    order; the engine must agree with ``ReferenceScan`` on all of it."""
    operators = (
        AddOperator(),
        NullOperator(),
        MaxVertexOperator(),
        MinEdgeOperator(),
        WeightedAddOperator(),
        FusedOperator((MinEdgeOperator(), AddOperator())),
    )
    for trial in range(40):
        n = int(rng.integers(1, 60))
        neighbors = rng.integers(-1, n, size=(n, 2))
        factor = Factor(neighbors)
        rows = np.repeat(np.arange(n), 2)
        cols = neighbors.reshape(-1)
        keep = (cols >= 0) & (cols != rows)
        graph = prepare_graph(
            from_edges(n, rows[keep], cols[keep], rng.uniform(0.5, 5.0, int(keep.sum())))
        )
        policy = ("eager", "never", "adaptive")[trial % 3]
        for operator in operators:
            device = DeviceGroup(devices) if devices > 1 else None
            new = BidirectionalScan(factor, device=device, compaction=policy).run(
                operator, graph
            )
            old = ReferenceScan(factor).run(operator, graph)
            _assert_results_identical(new, old)


class _FortranAdd(AddOperator):
    """Position payload handed out in Fortran order."""

    label = "fortran-add"

    def init(self, factor, graph):
        return {name: np.asfortranarray(arr) for name, arr in super().init(factor, graph).items()}


def test_fortran_ordered_payload(rng):
    """A flat view of a Fortran-ordered copy would be a copy too, and the
    step loop's writes through it would be lost; the engine copies each
    payload in C order."""
    gt = random_02_factor(50, rng, cycle_fraction=0.3)
    assert not _FortranAdd().init(gt.factor, None)["r"].flags.c_contiguous
    new = BidirectionalScan(gt.factor).run(_FortranAdd())
    _assert_results_identical(new, ReferenceScan(gt.factor).run(_FortranAdd()))
    np.testing.assert_array_equal(
        new.payload["r"], BidirectionalScan(gt.factor).run(AddOperator()).payload["r"]
    )
    assert new.payload["r"].shape == new.q.shape == (50, 2)


# ---------------------------------------------------------------------------
# early exit on suite graphs (launch-count regression)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["ecology2", "g3_circuit"])
def test_early_exit_fires_on_suite_graphs(name):
    """Real-matrix factors decompose into short paths: the scan must stop
    well before the nominal ⌈log₂N⌉ launches."""
    from repro.core import parallel_factor

    graph = prepare_graph(build_matrix(name, scale=0.25))
    factor = parallel_factor(graph, ParallelFactorConfig(n=2, max_iterations=5)).factor
    forest = break_cycles(factor, graph).forest
    dev = Device()
    result = BidirectionalScan(forest, device=dev).run(AddOperator())
    assert result.converged
    assert result.launches < result.steps, (name, result.launches, result.steps)
    assert dev.launch_count == result.launches
    # the frontier shrinks monotonically on a forest
    assert list(result.active_per_launch) == sorted(result.active_per_launch, reverse=True)


# ---------------------------------------------------------------------------
# operator fusion
# ---------------------------------------------------------------------------


def test_fused_payloads_match_solo_runs(rng):
    gt = random_02_factor(70, rng, cycle_fraction=0.5)
    graph = _weighted(gt.factor, rng)
    fused = BidirectionalScan(gt.factor).run(
        FusedOperator((MinEdgeOperator(), AddOperator())), graph
    )
    solo_min = BidirectionalScan(gt.factor).run(MinEdgeOperator(), graph)
    solo_add = BidirectionalScan(gt.factor).run(AddOperator())
    for name in ("w", "u", "v"):
        np.testing.assert_array_equal(fused.payload[name], solo_min.payload[name])
    np.testing.assert_array_equal(fused.payload["r"], solo_add.payload["r"])
    np.testing.assert_array_equal(fused.q, solo_add.q)


def test_fused_prefixes_disambiguate_collisions():
    factor = Factor.from_edge_list(4, 2, [0, 1, 2], [1, 2, 3])
    with pytest.raises(ScanError, match="collision"):
        BidirectionalScan(factor).run(FusedOperator((AddOperator(), AddOperator())))
    fused = BidirectionalScan(factor).run(
        FusedOperator((AddOperator(), AddOperator()), prefixes=("a.", "b."))
    )
    np.testing.assert_array_equal(fused.payload["a.r"], fused.payload["b.r"])


def test_fused_operator_validation():
    with pytest.raises(ScanError):
        FusedOperator(())
    with pytest.raises(ScanError):
        FusedOperator((AddOperator(),), prefixes=("a.", "b."))


def test_operator_labels():
    assert operator_label(MinEdgeOperator()) == "min-edge"
    assert operator_label(AddOperator()) == "add"
    fused = FusedOperator((MinEdgeOperator(), AddOperator()))
    assert operator_label(fused) == "fused(min-edge+add)"


def test_kernel_names_carry_operator_label():
    factor = Factor.from_edge_list(4, 2, [0, 1, 2], [1, 2, 3])
    dev = Device()
    BidirectionalScan(factor, device=dev).run(AddOperator())
    assert all("add" in rec.name for rec in dev.records("bidirectional-scan"))
    # the aggregation base name is unchanged
    assert all(rec.name.startswith("bidirectional-scan[") for rec in dev.kernels)


# ---------------------------------------------------------------------------
# scan-result reuse in cycles/paths and the merged pipeline path
# ---------------------------------------------------------------------------


def test_break_cycles_accepts_fused_scan_result(rng):
    gt = random_02_factor(60, rng, cycle_fraction=0.6)
    graph = _weighted(gt.factor, rng)
    fused = BidirectionalScan(gt.factor).run(
        FusedOperator((MinEdgeOperator(), AddOperator())), graph
    )
    reused = break_cycles(gt.factor, scan_result=fused)
    fresh = break_cycles(gt.factor, graph)
    assert reused.forest == fresh.forest
    np.testing.assert_array_equal(reused.removed_u, fresh.removed_u)
    np.testing.assert_array_equal(reused.removed_v, fresh.removed_v)
    np.testing.assert_array_equal(reused.cycle_mask, fresh.cycle_mask)
    np.testing.assert_array_equal(detect_cycles(gt.factor, scan_result=fused), fresh.cycle_mask)


def test_break_cycles_requires_graph_or_scan_result():
    factor = Factor.from_edge_list(4, 2, [0, 1, 2], [1, 2, 3])
    with pytest.raises(ScanError, match="weighted graph"):
        break_cycles(factor)


def test_break_cycles_rejects_payload_without_min_edge():
    factor = Factor.from_edge_list(4, 2, [0, 1, 2], [1, 2, 3])
    result = BidirectionalScan(factor).run(AddOperator())
    with pytest.raises(ScanError, match="weakest-edge"):
        break_cycles(factor, scan_result=result)


def test_paths_from_scan_requires_position_payload():
    factor = Factor.from_edge_list(4, 2, [0, 1, 2], [1, 2, 3])
    result = BidirectionalScan(factor).run(NullOperator())
    with pytest.raises(ScanError, match="position accumulator"):
        paths_from_scan(result)


def test_paths_from_scan_matches_identify_paths(rng):
    gt = random_02_factor(50, rng, cycle_fraction=0.0)
    result = BidirectionalScan(gt.factor).run(AddOperator())
    info = paths_from_scan(result)
    fresh = identify_paths(gt.factor)
    np.testing.assert_array_equal(info.path_id, fresh.path_id)
    np.testing.assert_array_equal(info.position, fresh.position)


@pytest.mark.parametrize("seed", [3, 11])
def test_pipeline_merged_scan_bit_identical(seed):
    from repro.graphs import random_weighted_graph

    rng = np.random.default_rng(seed)
    a = random_weighted_graph(90, 320, rng)
    merged = extract_linear_forest(a, merged_scan=True)
    split = extract_linear_forest(a, merged_scan=False)
    assert merged.forest == split.forest
    np.testing.assert_array_equal(merged.perm, split.perm)
    np.testing.assert_array_equal(merged.paths.path_id, split.paths.path_id)
    np.testing.assert_array_equal(merged.paths.position, split.paths.position)
    np.testing.assert_array_equal(merged.broken.removed_u, split.broken.removed_u)
    np.testing.assert_array_equal(
        merged.tridiagonal.to_dense(), split.tridiagonal.to_dense()
    )


def test_pipeline_merged_scan_saves_launches_when_acyclic():
    """An acyclic factor needs exactly one fused butterfly pass."""
    rng = np.random.default_rng(7)
    from repro.graphs import random_weighted_graph

    # dense-ish random graph: the charged factor converges without cycles
    for seed in range(6):
        a = random_weighted_graph(80, 300, np.random.default_rng(seed))
        d_merged, d_split = Device(), Device()
        res = extract_linear_forest(a, device=d_merged, merged_scan=True)
        extract_linear_forest(a, device=d_split, merged_scan=False)
        if res.broken.n_cycles == 0:
            assert len(d_merged.records("bidirectional-scan")) < len(
                d_split.records("bidirectional-scan")
            )
            return
    pytest.skip("no acyclic factor found in the seed sweep")


# ---------------------------------------------------------------------------
# dtype normalisation (satellite fixes)
# ---------------------------------------------------------------------------


def test_min_edge_init_dtype_is_index_dtype():
    from repro._validation import INDEX_DTYPE

    # degree-1 factor: the second lane uses the missing-neighbour fill
    factor = Factor.from_edge_list(2, 1, [0], [1])
    graph = prepare_graph(from_edges(2, np.array([0]), np.array([1]), np.array([2.0])))
    payload = MinEdgeOperator().init(factor, graph)
    assert payload["u"].dtype == INDEX_DTYPE
    assert payload["v"].dtype == INDEX_DTYPE


def test_break_cycles_empty_result_dtype(rng):
    from repro._validation import INDEX_DTYPE

    gt = random_02_factor(20, rng, cycle_fraction=0.0)
    graph = _weighted(gt.factor, rng)
    result = break_cycles(gt.factor, graph)
    assert result.removed_u.dtype == INDEX_DTYPE
    assert result.removed_v.dtype == INDEX_DTYPE
