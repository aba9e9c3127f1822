"""Edge cases of the delta engine: edit batches, fallbacks, path surgery."""

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
from repro.sparse import from_edges


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


def test_region_fallback_prepares_the_edited_matrix_once(monkeypatch):
    """The fallback re-run reuses the prepared graph that sized the ball."""
    import repro.core.delta as delta_mod
    import repro.core.pipeline as pipeline_mod

    a = aniso2(16)
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
        device=Device(record=False), max_region_fraction=0.0,
    )
    assert updated.stats.fallback == "region"
    assert len(calls) == 1
    monkeypatch.undo()
    check_against_scratch(updated)


def test_mismatched_shapes_rejected():
    a = aniso2(8)
    previous = extract_linear_forest(a, device=Device(record=False))
    with pytest.raises(ShapeError, match="vertices"):
        apply_edits(previous, EditBatch.single(0, 9, 3.0), aniso2(10))


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
