"""VertexPartition unit tests, sharded-pipeline edge cases, device resolution.

The middle part drives the engines over a device group through the
degenerate layouts a 1-D partition produces — more shards than vertices,
empty shards, single-vertex shards, zero-edge graphs — and pins the halo
contract: when no edge and no band position crosses a shard cut, **zero**
bytes cross the interconnect; when a path spans shards, the halo is
non-empty and the result is still bit-identical to the solo run.  A
one-device group meters exactly like a solo device, and runs that record no
interconnect do no halo work at all.

The last part pins how ``device=``/``devices=``/``$REPRO_DEVICES`` resolve,
identically in ``extract_linear_forest`` and ``apply_edits``.
"""

import numpy as np
import pytest

from repro.core import VertexPartition, extract_linear_forest, resolve_devices
from repro.core.partition import ENV_DEVICES
from repro.delta import EditBatch, apply_edits
from repro.device import Device, DeviceGroup
from repro.errors import ConfigError, ShapeError
from repro.graphs import aniso2, build_matrix, small_suite
from repro.obs import MetricsRegistry, use_metrics
from repro.sparse import from_edges


def assert_bit_identical(a, group, **kwargs):
    """Run solo + sharded on ``a`` and compare the result arrays."""
    solo = extract_linear_forest(a, device=Device(record=False), **kwargs)
    sharded = extract_linear_forest(a, device=group, **kwargs)
    assert np.array_equal(sharded.forest.neighbors, solo.forest.neighbors)
    assert np.array_equal(sharded.paths.path_id, solo.paths.path_id)
    assert np.array_equal(sharded.paths.position, solo.paths.position)
    assert np.array_equal(sharded.perm, solo.perm)
    assert np.array_equal(sharded.tridiagonal.dl, solo.tridiagonal.dl)
    assert np.array_equal(sharded.tridiagonal.d, solo.tridiagonal.d)
    assert np.array_equal(sharded.tridiagonal.du, solo.tridiagonal.du)
    assert sharded.coverage == solo.coverage
    return sharded


# -- VertexPartition unit tests --------------------------------------------


def test_uniform_sizes_differ_by_at_most_one():
    p = VertexPartition.uniform(10, 3)
    assert p.n_vertices == 10
    assert p.n_shards == 3
    assert p.sizes.sum() == 10
    assert p.sizes.max() - p.sizes.min() <= 1


def test_uniform_covers_every_vertex_exactly_once():
    p = VertexPartition.uniform(17, 5)
    seen = []
    for s, lo, hi in p:
        assert (lo, hi) == p.range_of(s)
        seen.extend(range(lo, hi))
    assert seen == list(range(17))


def test_owner_of_matches_ranges():
    p = VertexPartition.uniform(23, 4)
    ids = np.arange(23)
    owners = p.owner_of(ids)
    for s, lo, hi in p:
        assert (owners[lo:hi] == s).all()


def test_more_shards_than_vertices_leaves_empty_shards():
    p = VertexPartition.uniform(2, 5)
    assert p.n_shards == 5
    assert p.sizes.sum() == 2
    assert sum(p.is_empty(s) for s in range(5)) == 3
    # every vertex still has exactly one owner despite coincident bounds
    assert sorted(p.owner_of(np.arange(2)).tolist()) == sorted(
        s for s in range(5) if not p.is_empty(s)
    )


def test_single_vertex_shards():
    p = VertexPartition.uniform(4, 4)
    assert p.sizes.tolist() == [1, 1, 1, 1]
    assert p.owner_of(np.arange(4)).tolist() == [0, 1, 2, 3]


def test_owner_of_rejects_out_of_range_ids():
    p = VertexPartition.uniform(8, 2)
    with pytest.raises(ShapeError):
        p.owner_of(np.array([8]))
    with pytest.raises(ShapeError):
        p.owner_of(np.array([-1]))


def test_invalid_bounds_are_rejected():
    with pytest.raises(ShapeError):
        VertexPartition(bounds=np.array([1, 4]))  # must start at 0
    with pytest.raises(ShapeError):
        VertexPartition(bounds=np.array([0, 5, 3]))  # decreasing
    with pytest.raises(ShapeError):
        VertexPartition(bounds=np.array([0]))  # too short


# -- sharded pipeline edge cases -------------------------------------------


def line_graph(n, seed=0, dtype=np.float64):
    """A single path 0-1-...-(n-1) with distinct random weights."""
    rng = np.random.default_rng(seed)
    u = np.arange(n - 1)
    return from_edges(n, u, u + 1, rng.uniform(0.1, 1.0, n - 1).astype(dtype))


def test_fewer_vertices_than_devices():
    # 8 devices for 3 vertices: five shards are empty and never launch
    a = line_graph(3, seed=1)
    group = DeviceGroup(8)
    assert_bit_identical(a, group)
    launches = group.per_device_launches()
    assert sum(1 for count in launches.values() if count > 0) <= 3


def test_zero_edge_graph_moves_no_interconnect_bytes():
    # no edges, no cycles, no halo: every vertex is its own path
    n = 9
    a = from_edges(n, np.array([], dtype=int), np.array([], dtype=int), np.array([]))
    group = DeviceGroup(3)
    sharded = assert_bit_identical(a, group)
    assert sharded.paths.n_paths == n
    assert group.interconnect.total_bytes() == 0
    assert group.interconnect.transfer_count == 0


def test_block_aligned_graph_moves_no_interconnect_bytes():
    # four 6-vertex path blocks, each wholly inside one shard of a 4-way
    # uniform partition of 24 vertices: no edge and (because path ids are
    # block-minimal vertex ids) no permuted band position crosses a cut
    rng = np.random.default_rng(3)
    u = np.concatenate([b * 6 + np.arange(5) for b in range(4)])
    a = from_edges(24, u, u + 1, rng.uniform(0.1, 1.0, u.size))
    group = DeviceGroup(4)
    assert_bit_identical(a, group)
    assert group.interconnect.total_bytes() == 0
    assert group.interconnect.transfer_count == 0


def test_isolated_vertices_on_shard_boundaries():
    # vertices 3,4,5 (spanning the 2-shard cut of 8 vertices at 4) are
    # isolated; edges exist only inside each half, so the halo stays empty
    rng = np.random.default_rng(5)
    u = np.array([0, 1, 6])
    v = np.array([1, 2, 7])
    a = from_edges(8, u, v, rng.uniform(0.1, 1.0, 3))
    group = DeviceGroup(2)
    sharded = assert_bit_identical(a, group)
    assert sharded.paths.n_paths == 5  # two paths + three singletons
    assert group.interconnect.total_bytes() == 0
    assert group.interconnect.transfer_count == 0


def test_path_spanning_three_shards_exchanges_halo():
    a = line_graph(24, seed=7)
    group = DeviceGroup(3)
    assert_bit_identical(a, group)
    # the path crosses both cuts: propose and scan halos must be non-empty
    assert group.interconnect.total_bytes() > 0
    assert group.interconnect.total_bytes("halo.degree") > 0
    assert group.interconnect.total_bytes("halo.scan") > 0


def test_single_vertex_shards_pipeline():
    a = line_graph(4, seed=11)
    group = DeviceGroup(4)
    assert_bit_identical(a, group)
    # every edge is a cut edge on 1-vertex shards
    assert group.interconnect.total_bytes() > 0


def test_explicit_partition_is_honoured():
    # an intentionally skewed partition still produces identical bits
    a = line_graph(12, seed=13)
    partition = VertexPartition(bounds=np.array([0, 2, 2, 12]))
    group = DeviceGroup(3)
    solo = extract_linear_forest(a, device=Device(record=False))
    sharded = extract_linear_forest(a, device=group, partition=partition)
    assert np.array_equal(sharded.forest.neighbors, solo.forest.neighbors)
    assert np.array_equal(sharded.perm, solo.perm)
    # the empty middle shard never launches
    assert group.per_device_launches()["gpu1"] == 0


def _records(device):
    return [
        (k.name, k.bytes_read, k.bytes_written, k.active_lanes, k.total_lanes, k.notes)
        for k in device.kernels
    ]


@pytest.mark.parametrize("name", small_suite())
def test_one_device_group_meters_like_a_solo_device(name):
    a = build_matrix(name, scale=0.25)
    solo = Device()
    extract_linear_forest(a, device=solo)
    group = DeviceGroup(1)
    extract_linear_forest(a, device=group)
    assert _records(group[0]) == _records(solo)
    assert group.interconnect.transfer_count == 0


def test_solo_and_unrecorded_runs_do_no_halo_work(monkeypatch):
    a = line_graph(24, seed=7)  # the path crosses every shard cut

    def refuse(self, ids):
        raise AssertionError("halo work on a run whose interconnect records nothing")

    monkeypatch.setattr(VertexPartition, "owner_of", refuse)
    extract_linear_forest(a, device=Device())
    extract_linear_forest(a, device=DeviceGroup(3, record=False))
    # a recording group meters its halo through the same hook
    with pytest.raises(AssertionError, match="halo work"):
        extract_linear_forest(a, device=DeviceGroup(3))


# -- device resolution -------------------------------------------------------


def _devices_used(run):
    """The device count a run resolved to, read off its ``shard.devices``
    gauge (``None`` for a one-device run)."""
    registry = MetricsRegistry()
    with use_metrics(registry):
        run()
    gauge = registry.gauges.get("shard.devices")
    return None if gauge is None else gauge.value


def test_explicit_devices_beat_the_environment(monkeypatch):
    a = line_graph(12, seed=3)
    monkeypatch.setenv(ENV_DEVICES, "4")
    assert resolve_devices() == 4
    assert resolve_devices(2) == 2
    assert _devices_used(lambda: extract_linear_forest(a)) == 4
    assert _devices_used(lambda: extract_linear_forest(a, devices=2)) == 2
    # an explicit single device pins the one-device path
    assert _devices_used(lambda: extract_linear_forest(a, device=Device())) is None


@pytest.mark.parametrize("raw", ["0", "four"])
def test_bad_device_counts_in_the_environment_name_the_variable(monkeypatch, raw):
    monkeypatch.setenv(ENV_DEVICES, raw)
    with pytest.raises(ConfigError, match=ENV_DEVICES):
        resolve_devices()
    with pytest.raises(ConfigError, match=ENV_DEVICES):
        extract_linear_forest(line_graph(6))


def test_a_device_with_devices_one_runs_on_that_device_in_both_entry_points():
    a = aniso2(8)
    solo = extract_linear_forest(a, device=Device(record=False))
    dev = Device()
    result = extract_linear_forest(a, device=dev, devices=1)
    assert dev.launch_count > 0
    assert np.array_equal(result.perm, solo.perm)
    dev = Device()
    updated = apply_edits(solo, EditBatch.single(0, 9, 3.0), a, device=dev, devices=1)
    assert dev.launch_count > 0
    assert updated.stats.fallback != "sharded"


def test_a_device_with_several_devices_is_a_config_error_in_both_entry_points():
    a = aniso2(8)
    solo = extract_linear_forest(a, device=Device(record=False))
    with pytest.raises(ConfigError, match="DeviceGroup"):
        extract_linear_forest(a, device=Device(), devices=2)
    with pytest.raises(ConfigError, match="DeviceGroup"):
        apply_edits(solo, EditBatch.single(0, 9, 3.0), a, device=Device(), devices=2)
