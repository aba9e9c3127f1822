"""Edge cases of the delta engine: edit batches, fallbacks, path surgery."""

import re
import warnings

import numpy as np
import pytest

from repro.core import extract_linear_forest
from repro.delta import (
    DeltaFallbackWarning,
    EditBatch,
    apply_edits,
    apply_edits_to_matrix,
    invalidation_radius,
)
from repro.core.factor import ParallelFactorConfig
from repro.device import Device, DeviceGroup
from repro.errors import ConfigError, ShapeError
from repro.graphs import aniso2
from repro.sparse import CSRMatrix, PreparedGraph, from_edges
from tests.properties.test_delta_splice_properties import assert_same_graph


def chain(n: int, weight: float = 2.0):
    """A path graph 0-1-2-...-n-1 with strictly decreasing edge weights, so
    the greedy-by-magnitude factor confirms exactly the chain."""
    u = np.arange(n - 1)
    w = weight + np.arange(n - 1)[::-1] * 0.5
    return from_edges(n, u, u + 1, w)


def same_bits(x, y):
    return (
        np.array_equal(x.factor_result.factor.neighbors, y.factor_result.factor.neighbors)
        and np.array_equal(x.forest.neighbors, y.forest.neighbors)
        and np.array_equal(x.paths.path_id, y.paths.path_id)
        and np.array_equal(x.paths.position, y.paths.position)
        and np.array_equal(x.perm, y.perm)
        and np.array_equal(x.tridiagonal.d, y.tridiagonal.d)
        and np.array_equal(x.tridiagonal.dl, y.tridiagonal.dl)
        and np.array_equal(x.tridiagonal.du, y.tridiagonal.du)
        and x.coverage == y.coverage
    )


def run_delta(a, edits, **kwargs):
    previous = extract_linear_forest(a, device=Device(record=False))
    return previous, apply_edits(
        previous, edits, a, device=kwargs.pop("device", Device(record=False)),
        **kwargs,
    )


def check_against_scratch(updated):
    fresh = extract_linear_forest(updated.matrix, device=Device(record=False))
    assert same_bits(updated.result, fresh)
    return fresh


# -- EditBatch validation ---------------------------------------------------


class TestEditBatch:
    def test_roundtrips_through_dicts(self):
        dicts = [
            {"u": 3, "v": 7, "w": 0.25},
            {"u": 10, "v": 11, "delete": True},
            {"u": 0, "v": 1, "w": -2.5},
        ]
        batch = EditBatch.from_dicts(dicts)
        assert len(batch) == 3
        assert batch.to_dicts() == dicts
        assert np.array_equal(batch.touched, [0, 1, 3, 7, 10, 11])

    def test_single_and_empty(self):
        assert len(EditBatch.empty()) == 0
        e = EditBatch.single(2, 5, 1.5)
        assert e.to_dicts() == [{"u": 2, "v": 5, "w": 1.5}]
        d = EditBatch.single(2, 5)
        assert d.to_dicts() == [{"u": 2, "v": 5, "delete": True}]

    def test_rejects_self_loops(self):
        with pytest.raises(ConfigError, match="self-loop"):
            EditBatch.single(4, 4, 1.0)

    def test_rejects_negative_ids(self):
        with pytest.raises(ConfigError, match="negative"):
            EditBatch.single(-1, 4, 1.0)

    def test_rejects_non_finite_and_zero_weights(self):
        with pytest.raises(ConfigError, match="finite"):
            EditBatch.single(0, 1, np.inf)
        with pytest.raises(ConfigError, match="delete edit instead"):
            EditBatch.single(0, 1, 0.0)

    def test_rejects_ragged_arrays(self):
        with pytest.raises(ShapeError, match="equal-length"):
            EditBatch(
                u=np.array([0, 1]), v=np.array([2]),
                w=np.array([1.0]), delete=np.array([False]),
            )

    def test_from_dicts_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match=r"edit #1 has unknown keys \['weight'\]"):
            EditBatch.from_dicts(
                [{"u": 0, "v": 1, "w": 1.0}, {"u": 1, "v": 2, "weight": 1.0}]
            )

    def test_from_dicts_rejects_w_with_delete(self):
        with pytest.raises(ConfigError, match="both 'w' and 'delete'"):
            EditBatch.from_dicts([{"u": 0, "v": 1, "w": 1.0, "delete": True}])

    def test_from_dicts_needs_endpoints_and_weight(self):
        with pytest.raises(ConfigError, match="integer 'u' and 'v'"):
            EditBatch.from_dicts([{"u": 0, "w": 1.0}])
        with pytest.raises(ConfigError, match="numeric 'w'"):
            EditBatch.from_dicts([{"u": 0, "v": 1}])
        with pytest.raises(ConfigError, match="must be a list"):
            EditBatch.from_dicts({"u": 0, "v": 1, "w": 1.0})

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"u": 1.7, "v": 2, "w": 1.0}, "needs integer 'u' and 'v'"),
            ({"u": True, "v": 2, "w": 1.0}, "needs integer 'u' and 'v'"),
            ({"u": 3, "v": "2", "w": 1.0}, "needs integer 'u' and 'v'"),
            ({"u": 1, "v": 2, "delete": "false"}, "has a non-boolean 'delete' 'false'"),
            ({"u": 1, "v": 2, "delete": 1}, "has a non-boolean 'delete' 1"),
            ({"u": 1, "v": 2, "w": True}, "needs a numeric 'w'"),
            ({"u": 1, "v": 2, "w": "2.5"}, "needs a numeric 'w'"),
            ({"u": 2**70, "v": 2, "w": 1.0}, "needs integer 'u' and 'v'"),
            ({"u": 1, "v": 1e300, "w": 1.0}, "needs integer 'u' and 'v'"),
        ],
        ids=["float-id", "bool-id", "string-id", "string-delete", "int-delete",
             "bool-w", "string-w", "int-id-past-int64", "float-id-past-int64"],
    )
    def test_from_dicts_refuses_misread_values(self, edit, message):
        good = {"u": 0, "v": 1, "w": 1.0}
        with pytest.raises(ConfigError, match="edit #1 " + re.escape(message)):
            EditBatch.from_dicts([good, edit])

    def test_from_dicts_takes_integral_floats_and_integer_weights(self):
        batch = EditBatch.from_dicts([{"u": 2.0, "v": 3, "w": 1}])
        assert batch.to_dicts() == [{"u": 2, "v": 3, "w": 1.0}]

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("u", np.array([0.0, 1.7]), "edit #1: u = 1.7 is not an integer vertex id"),
            ("v", np.array([True, True]), "edit #0: v = True is not an integer vertex id"),
            ("w", np.array([True, False]), "edit #0: w = True is not a number"),
            ("w", np.array(["1.0", "2.0"]), "edit #0: w = '1.0' is not a number"),
            ("delete", np.array(["false", "no"]), "edit #0: delete = 'false' is not a boolean"),
            ("delete", np.array([0, 1]), "edit #0: delete = 0 is not a boolean"),
            # lists that mix types: NumPy would turn the True into 1 / 1.0
            ("u", [0, True], "edit #1: u = True is not an integer vertex id"),
            ("w", [2.5, True], "edit #1: w = True is not a number"),
            ("delete", [False, 0], "edit #1: delete = 0 is not a boolean"),
            ("u", [0, 2**63], f"edit #1: u = {2**63} is not an integer vertex id"),
        ],
        ids=["float-u", "bool-v", "bool-w", "string-w", "string-delete", "int-delete",
             "mixed-list-u", "mixed-list-w", "mixed-list-delete", "u-past-int64"],
    )
    def test_constructor_refuses_instead_of_converting(self, field, value, message):
        arrays = {
            "u": np.array([0, 1]), "v": np.array([2, 3]),
            "w": np.array([1.0, 2.0]), "delete": np.array([False, False]),
        }
        arrays[field] = value
        with pytest.raises(ConfigError, match=re.escape(message)):
            EditBatch(**arrays)

    def test_constructor_takes_integral_float_ids(self):
        batch = EditBatch(
            u=np.array([0.0, 1.0]), v=np.array([2, 3]),
            w=np.array([1.0, 2.0]), delete=np.array([False, True]),
        )
        assert batch.u.dtype == np.int64 and batch.u.tolist() == [0, 1]

    def test_constructor_takes_lists_of_numpy_scalars(self):
        batch = EditBatch(
            u=[np.int64(0), 1.0], v=[2, np.int32(3)],
            w=[np.float32(0.5), 2], delete=[np.False_, True],
        )
        assert batch.to_dicts() == [
            {"u": 0, "v": 2, "w": 0.5}, {"u": 1, "v": 3, "delete": True},
        ]


# -- apply_edits_to_matrix --------------------------------------------------


class TestApplyEditsToMatrix:
    def test_insert_sets_both_directions(self):
        a = chain(6)
        edited = apply_edits_to_matrix(a, EditBatch.single(0, 5, 9.0))
        coo = edited.to_coo()
        mask = (coo.row == 0) & (coo.col == 5)
        assert coo.val[mask] == [9.0]
        mask_t = (coo.row == 5) & (coo.col == 0)
        assert coo.val[mask_t] == [9.0]

    def test_delete_removes_both_directions(self):
        a = chain(6)
        edited = apply_edits_to_matrix(a, EditBatch.single(2, 3))
        coo = edited.to_coo()
        assert not (((coo.row == 2) & (coo.col == 3))
                    | ((coo.row == 3) & (coo.col == 2))).any()
        assert edited.nnz == a.nnz - 2

    def test_reweight_replaces_not_accumulates(self):
        a = chain(6)
        edited = apply_edits_to_matrix(a, EditBatch.single(0, 1, 7.5))
        coo = edited.to_coo()
        assert coo.val[(coo.row == 0) & (coo.col == 1)] == [7.5]

    def test_last_edit_wins_per_pair(self):
        a = chain(6)
        batch = EditBatch.from_dicts([
            {"u": 0, "v": 1, "w": 3.0},
            {"u": 1, "v": 0, "delete": True},   # same pair, opposite order
        ])
        edited = apply_edits_to_matrix(a, batch)
        coo = edited.to_coo()
        assert not (((coo.row == 0) & (coo.col == 1))
                    | ((coo.row == 1) & (coo.col == 0))).any()

    def test_preserves_value_dtype(self):
        a = chain(6).astype(np.float32)
        edited = apply_edits_to_matrix(a, EditBatch.single(0, 3, 1.25))
        assert edited.data.dtype == np.float32

    @pytest.mark.parametrize("w", [1e39, 1e-50], ids=["overflow", "underflow"])
    def test_refuses_a_weight_float32_cannot_hold(self, w):
        """float32 would store inf or an explicit 0 (a silent delete in the
        prepared graph); the edit is refused instead, without a warning."""
        a = chain(6).astype(np.float32)
        batch = EditBatch.from_dicts([{"u": 0, "v": 2, "w": 1.0}, {"u": 1, "v": 3, "w": w}])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                ConfigError, match=r"edit #1: weight .* is not finite and nonzero in float32"
            ):
                apply_edits_to_matrix(a, batch)
            previous = extract_linear_forest(a, device=Device(record=False))
            with pytest.raises(ConfigError, match="float32"):
                apply_edits(previous, batch, a, device=Device(record=False))

    @pytest.mark.parametrize("w", [1e39, 1e-50], ids=["overflow", "underflow"])
    def test_float64_holds_those_weights(self, w):
        edited = apply_edits_to_matrix(chain(6), EditBatch.single(1, 3, w))
        assert edited.gather([1, 3], [3, 1]).tolist() == [w, w]

    def test_out_of_range_endpoint_rejected(self):
        with pytest.raises(ConfigError, match="out of range"):
            apply_edits_to_matrix(chain(6), EditBatch.single(0, 6, 1.0))

    def test_empty_batch_is_the_same_object(self):
        a = chain(6)
        assert apply_edits_to_matrix(a, EditBatch.empty()) is a


# -- apply_edits: paths, fallbacks, metering --------------------------------


def test_invalidation_radius_is_two_hops_per_round():
    # one proposition round moves a difference up to two hops (propose reads
    # one hop out, mutualize reads the proposers' reads); the first round
    # only sees the static rows, hence 2M - 1
    assert invalidation_radius(ParallelFactorConfig(n=2, max_iterations=7)) == 13
    assert invalidation_radius(ParallelFactorConfig(n=2, max_iterations=1)) == 1


def test_empty_batch_returns_previous_with_zero_launches():
    a = aniso2(8)
    previous = extract_linear_forest(a, device=Device(record=False))
    recorder = Device("empty-check", record=True)
    updated = apply_edits(previous, EditBatch.empty(), a, device=recorder)
    assert recorder.launch_count == 0
    assert updated.result is previous
    assert updated.matrix is a
    assert updated.stats.fallback == "empty"
    assert updated.stats.reused_fraction == 1.0


def test_edit_at_a_path_endpoint():
    """Reweighting the edge at a chain's end leaves one path, same ids."""
    a = chain(40)
    _, updated = run_delta(a, EditBatch.single(0, 1, 100.0))
    fresh = check_against_scratch(updated)
    assert fresh.paths.n_paths == updated.result.paths.n_paths


def test_edit_at_a_path_interior():
    """An interior insert perturbs only nearby rows; far rows are reused."""
    a = chain(200)
    _, updated = run_delta(a, EditBatch.single(99, 101, 50.0))
    check_against_scratch(updated)
    assert updated.stats.fallback is None
    assert updated.stats.reused_fraction > 0.5


def test_delete_of_a_confirmed_edge_splits_the_path():
    """Deleting a confirmed interior edge must split one path into two."""
    a = chain(200)
    previous, updated = run_delta(a, EditBatch.single(100, 101))
    # the chain edge really was confirmed before the edit
    assert 101 in previous.forest.neighbors[100]
    check_against_scratch(updated)
    assert updated.result.paths.n_paths == previous.paths.n_paths + 1
    assert 101 not in updated.result.forest.neighbors[100]


def test_insert_bridging_two_paths_merges_them():
    a = chain(200)
    previous, split = run_delta(a, EditBatch.single(100, 101))
    # now bridge the split back with a dominating weight
    merged = apply_edits(
        split.result, EditBatch.single(100, 101, 500.0), split.matrix,
        device=Device(record=False),
    )
    check_against_scratch(merged)
    assert merged.result.paths.n_paths == previous.paths.n_paths


def test_devices_gt_one_falls_back_with_a_warning():
    a = aniso2(8)
    previous = extract_linear_forest(a, device=Device(record=False))
    edits = EditBatch.single(0, 9, 3.0)
    with pytest.warns(DeltaFallbackWarning, match="sharded"):
        updated = apply_edits(previous, edits, a, devices=2)
    assert updated.stats.fallback == "sharded"
    assert updated.stats.reused_fraction == 0.0
    check_against_scratch(updated)


def test_device_group_falls_back_with_a_warning():
    a = aniso2(8)
    previous = extract_linear_forest(a, device=Device(record=False))
    with pytest.warns(DeltaFallbackWarning, match="sharded"):
        updated = apply_edits(
            previous, EditBatch.single(0, 9, 3.0), a,
            device=DeviceGroup(2, record=False),
        )
    assert updated.stats.fallback == "sharded"
    check_against_scratch(updated)


def test_devices_with_single_device_is_a_config_error():
    a = aniso2(8)
    previous = extract_linear_forest(a, device=Device(record=False))
    with pytest.raises(ConfigError, match="DeviceGroup"):
        apply_edits(
            previous, EditBatch.single(0, 9, 3.0), a,
            device=Device(record=False), devices=2,
        )


def test_region_blowup_falls_back_silently():
    """Edits whose invalidation ball swallows the graph take the fallback."""
    a = aniso2(8)  # 64 vertices; ball(T, 19) is the whole grid
    previous = extract_linear_forest(a, device=Device(record=False))
    updated = apply_edits(
        previous, EditBatch.single(30, 33, 2.0), a, device=Device(record=False),
    )
    assert updated.stats.fallback == "region"
    check_against_scratch(updated)


def test_max_region_fraction_tightens_the_cutoff():
    a = aniso2(32)
    previous = extract_linear_forest(a, device=Device(record=False))
    edits = EditBatch.single(0, 1, 3.0)
    loose = apply_edits(
        previous, edits, a, device=Device(record=False), max_region_fraction=0.5,
    )
    assert loose.stats.fallback is None
    tight = apply_edits(
        previous, edits, a, device=Device(record=False),
        max_region_fraction=0.01,
    )
    assert tight.stats.fallback == "region"
    assert same_bits(loose.result, tight.result)


def _count_prepares(monkeypatch, a, max_region_fraction):
    """Run one single-edit update of ``a`` and return it with the matrices
    that ``prepare_graph`` received in the delta engine and the pipeline."""
    import repro.core.delta as delta_mod
    import repro.core.pipeline as pipeline_mod

    previous = extract_linear_forest(a, device=Device(record=False))
    calls = []
    real = delta_mod.prepare_graph

    def counting(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(delta_mod, "prepare_graph", counting)
    monkeypatch.setattr(pipeline_mod, "prepare_graph", counting)
    updated = apply_edits(
        previous, EditBatch.single(0, 1, 3.0), a,
        device=Device(record=False), max_region_fraction=max_region_fraction,
    )
    monkeypatch.undo()
    return updated, calls


def test_region_fallback_prepares_the_edited_matrix_once(monkeypatch):
    """On a symmetric input the edited graph is spliced from the previous
    prepared graph, and the fallback re-run reuses it: nothing is prepared."""
    updated, calls = _count_prepares(monkeypatch, aniso2(16), 0.0)
    assert updated.stats.fallback == "region"
    assert len(calls) == 0
    check_against_scratch(updated)


def scaled(a, seed: int):
    """``a`` with every entry scaled by its own random factor in [0.5, 2):
    the pattern stays symmetric, the values do not."""
    rng = np.random.default_rng(seed)
    return CSRMatrix(
        a.indptr, a.indices, a.data * rng.uniform(0.5, 2.0, a.nnz), a.shape
    )


@pytest.mark.parametrize("max_region_fraction", [0.0, 1.0], ids=["fallback", "delta"])
def test_a_non_symmetric_input_prepares_the_edited_matrix_once(
    monkeypatch, max_region_fraction
):
    """A non-symmetric ``A'`` cannot be spliced: the edited matrix is
    prepared exactly once, and a fallback re-run reuses that graph."""
    a = scaled(aniso2(16), seed=5)
    assert not a.is_symmetric()
    updated, calls = _count_prepares(monkeypatch, a, max_region_fraction)
    assert updated.stats.fallback == ("region" if max_region_fraction == 0.0 else None)
    assert [m.data.tobytes() for m in calls] == [updated.matrix.data.tobytes()]
    check_against_scratch(updated)


def test_mismatched_shapes_rejected():
    a = aniso2(8)
    previous = extract_linear_forest(a, device=Device(record=False))
    with pytest.raises(ShapeError, match="vertices"):
        apply_edits(previous, EditBatch.single(0, 9, 3.0), aniso2(10))


def test_a_held_edited_matrix_is_not_spliced_again():
    a = aniso2(16)
    edits = EditBatch.single(0, 9, 3.0)
    edited = apply_edits_to_matrix(a, edits)
    _, updated = run_delta(a, edits, edited=edited)
    assert updated.matrix is edited
    check_against_scratch(updated)


@pytest.mark.parametrize("other", ["shape", "dtype"])
def test_an_edited_matrix_of_another_shape_or_dtype_is_refused(other):
    a = aniso2(8)
    previous = extract_linear_forest(a, device=Device(record=False))
    edits = EditBatch.single(0, 9, 3.0)
    edited = aniso2(10) if other == "shape" else apply_edits_to_matrix(a, edits).astype(
        np.float32
    )
    with pytest.raises(ShapeError, match="edited matrix has shape"):
        apply_edits(previous, edits, a, edited=edited)


def test_n_must_be_two():
    a = aniso2(8)
    previous = extract_linear_forest(a, device=Device(record=False))
    with pytest.raises(ConfigError, match="n=2"):
        apply_edits(
            previous, EditBatch.single(0, 9, 3.0), a,
            ParallelFactorConfig(n=3),
        )


def test_delta_launches_are_metered():
    """The four fused launches carry the scratch run's byte traffic."""
    a = aniso2(64)
    previous = extract_linear_forest(a, device=Device(record=False))
    recorder = Device("meter-check", record=True)
    updated = apply_edits(
        previous, EditBatch.single(3, 7, 0.25), a, device=recorder,
    )
    assert updated.stats.fallback is None
    names = [k.name for k in recorder.kernels]
    assert names == [
        "delta.frontier", "delta.factor", "delta.rescan", "delta.extract",
    ]
    assert recorder.total_bytes() > 0
    assert updated.stats.fused_launches > 4  # the amortized scratch rounds


def test_stats_to_dict_roundtrips_the_fields():
    a = aniso2(64)
    previous = extract_linear_forest(a, device=Device(record=False))
    updated = apply_edits(
        previous, EditBatch.single(3, 7, 0.25), a, device=Device(record=False),
    )
    d = updated.stats.to_dict()
    assert d["n_edits"] == 1
    assert d["fallback"] is None
    assert 0.0 < d["reused_fraction"] < 1.0
    assert d["region_vertices"] == updated.stats.region_vertices
    assert updated.coverage == updated.result.coverage


# -- the prepared graph carries its proof: a chained batch splices it ---------


def window_batch(g: int, step: int) -> EditBatch:
    """Eight sets, reweights and deletes between the vertices of one 5 x 5
    window of an aniso2(g) grid, a different window at every step."""
    rng = np.random.default_rng([g, step])
    r0, c0 = (3 * step) % (g - 5), 2
    window = [(r0 + dr) * g + c0 + dc for dr in range(5) for dc in range(5)]
    dicts = []
    for _ in range(8):
        u, v = (int(x) for x in rng.choice(window, size=2, replace=False))
        if rng.random() < 0.25:
            dicts.append({"u": u, "v": v, "delete": True})
        else:
            dicts.append({"u": u, "v": v, "w": float(rng.uniform(-4.0, 4.0)) or 1.0})
    return EditBatch.from_dicts(dicts)


def counting(monkeypatch, name: str) -> list:
    """Record every matrix that ``repro.core.delta.<name>`` receives last."""
    import repro.core.delta as delta_mod

    calls = []
    real = getattr(delta_mod, name)

    def wrapper(*args):
        calls.append(args[-1])
        return real(*args)

    monkeypatch.setattr(delta_mod, name, wrapper)
    return calls


def run_chain(a, steps: int, **kwargs) -> list:
    """Chain ``steps`` window batches from a cold extraction of ``a``."""
    g = int(round(np.sqrt(a.n_rows)))
    previous = extract_linear_forest(a, device=Device(record=False))
    chained = []
    for step in range(steps):
        updated = apply_edits(
            previous, window_batch(g, step), a, device=Device(record=False), **kwargs
        )
        chained.append(updated)
        a, previous = updated.matrix, updated.result
    return chained


def check_graph_against_scratch(updated):
    assert_same_graph(updated.result.graph, check_against_scratch(updated).graph)


def test_a_symmetric_chain_splices_every_batch(monkeypatch):
    """A cold extraction's prepared graph records the symmetric branch, so
    every batch of the chain splices it, the first one included: nothing is
    prepared, and ω_G is read from the spliced graph, never the matrix."""
    prepares = counting(monkeypatch, "prepare_graph")
    weights = counting(monkeypatch, "graph_weight")
    chained = run_chain(aniso2(64), 3)
    assert prepares == [] and weights == []
    for updated in chained:
        assert updated.stats.fallback is None
        graph = updated.result.graph
        assert isinstance(graph, PreparedGraph)
        assert graph.symmetric and graph.diagonal_only
        check_graph_against_scratch(updated)


def test_an_equal_copy_of_the_matrix_splices(monkeypatch):
    """The proof rests on ``apply_edits``' contract that ``previous`` is the
    result on ``a``, not on one matrix object: an equal copy splices too,
    with the same bits."""
    (first,) = run_chain(aniso2(64), 1)
    m = first.matrix
    copy = CSRMatrix(m.indptr.copy(), m.indices.copy(), m.data.copy(), m.shape)
    edits = window_batch(64, 1)
    prepares = counting(monkeypatch, "prepare_graph")
    same = apply_edits(first.result, edits, m, device=Device(record=False))
    copied = apply_edits(first.result, edits, copy, device=Device(record=False))
    assert prepares == []
    assert same_bits(same.result, copied.result)
    assert_same_graph(copied.result.graph, same.result.graph)
    check_graph_against_scratch(copied)


def test_a_chained_region_fallback_carries_the_proof(monkeypatch):
    """A region fallback re-runs on the spliced graph, which becomes its
    result's graph, so the next batch splices again."""
    prepares = counting(monkeypatch, "prepare_graph")
    chained = run_chain(aniso2(16), 2, max_region_fraction=0.0)
    assert prepares == []
    for updated in chained:
        assert updated.stats.fallback == "region"
        assert updated.result.graph.symmetric and updated.result.graph.diagonal_only
        check_graph_against_scratch(updated)


@pytest.mark.parametrize("max_region_fraction", [0.0, 1.0], ids=["fallback", "delta"])
def test_a_non_symmetric_input_prepares_each_batch_once(monkeypatch, max_region_fraction):
    """A non-symmetric ``A'`` cannot be spliced: each batch prepares its
    edited matrix once, and the graph records the ``A' + A'^T`` branch."""
    prepares = counting(monkeypatch, "prepare_graph")
    chained = run_chain(
        scaled(aniso2(16), seed=7), 2, max_region_fraction=max_region_fraction
    )
    assert [m.data.tobytes() for m in prepares] == [
        u.matrix.data.tobytes() for u in chained
    ]
    for updated in chained:
        assert not updated.result.graph.symmetric
        check_graph_against_scratch(updated)


@pytest.mark.parametrize("value", [0.0, np.nan], ids=["zero", "nan"])
def test_a_stored_offdiagonal_zero_or_nan_keeps_graph_weight(monkeypatch, value):
    """The prepared graph drops an explicit zero or NaN that ω_G counts: the
    graph is still spliced, but it records that more than the diagonal went,
    so ω_G is read from the matrix; the coverage equals the scratch run's
    bit for bit, a NaN included."""
    a = aniso2(64)
    # the coupling between the last two vertices, far from every window
    data = a.data.copy()
    data[a.find([4095, 4094], [4094, 4095])[0]] = value
    a = CSRMatrix(a.indptr, a.indices, data, a.shape)
    prepares = counting(monkeypatch, "prepare_graph")
    weights = counting(monkeypatch, "graph_weight")
    chained = run_chain(a, 2)
    assert prepares == []
    assert len(weights) == 2
    for updated in chained:
        assert updated.stats.fallback is None
        assert updated.result.graph.symmetric
        assert not updated.result.graph.diagonal_only
        fresh = extract_linear_forest(updated.matrix, device=Device(record=False))
        coverage = np.array([updated.result.coverage, fresh.coverage])
        assert coverage[0].tobytes() == coverage[1].tobytes()
        assert np.isnan(coverage[0]) == np.isnan(value)


def test_host_spans_name_the_splice_and_the_coverage():
    """``delta.splice`` (with ``spliced``: the prepared graph was spliced,
    not prepared) and ``delta.coverage`` are host spans under
    ``apply-edits``; the device still sees exactly the four fused
    ``delta.*`` launches per batch."""
    from repro.obs import Tracer, use_tracer

    tracer = Tracer("delta")
    with use_tracer(tracer):
        run_chain(aniso2(64), 2)
    roots = tracer.find(name_prefix="apply-edits")
    assert len(roots) == 2
    for root in roots:
        host = [
            s for s in tracer.find(category="host")
            if root.span_id in [p.span_id for p in tracer.ancestors(s)]
        ]
        assert [s.name for s in host] == ["delta.splice", "delta.coverage"]
        assert host[0].attributes["spliced"] is True
    launches = [s.name for s in tracer.find(category="kernel", name_prefix="delta.")]
    assert launches == 2 * ["delta.frontier", "delta.factor", "delta.rescan", "delta.extract"]
