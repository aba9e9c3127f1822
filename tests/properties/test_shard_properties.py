"""Property tests: sharding is invisible in the results.

A :class:`~repro.device.device.DeviceGroup` passed as ``device=`` splits the
vertex set over the group's devices and exchanges halos over the
interconnect.  The contract held here: for **every** device count, dtype and
compaction policy the sharded pipeline is bit-identical to the single-device
pipeline — a one-device group included, which must in turn match a solo run
bit for bit.  These properties are what make the per-device traffic split of
``benchmarks/test_shard_budget.py`` a pure optimisation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ParallelFactorConfig, extract_linear_forest
from repro.device import Device, DeviceGroup
from repro.graphs import aniso2, random_weighted_graph

SETTINGS = settings(max_examples=12, deadline=None)

DEVICE_COUNTS = (1, 2, 3, 8)
DTYPES = (np.float32, np.float64)
POLICIES = ("eager", "never", "adaptive")


def random_graph(seed: int, n_min: int = 4, n_max: int = 48):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_min, n_max + 1))
    n_edges = int(rng.integers(n, 4 * n))
    return random_weighted_graph(n, n_edges, rng)


def assert_result_equal(sharded, solo, label=""):
    """Bit-identity of every result array of a sharded run vs its solo run."""
    assert np.array_equal(
        sharded.factor_result.factor.neighbors, solo.factor_result.factor.neighbors
    ), f"factor neighbors {label}"
    assert np.array_equal(sharded.forest.neighbors, solo.forest.neighbors), label
    assert np.array_equal(sharded.paths.path_id, solo.paths.path_id), label
    assert np.array_equal(sharded.paths.position, solo.paths.position), label
    assert np.array_equal(sharded.perm, solo.perm), label
    assert np.array_equal(sharded.tridiagonal.dl, solo.tridiagonal.dl), label
    assert np.array_equal(sharded.tridiagonal.d, solo.tridiagonal.d), label
    assert np.array_equal(sharded.tridiagonal.du, solo.tridiagonal.du), label
    assert sharded.tridiagonal.value_dtype == solo.tridiagonal.value_dtype, label
    assert np.array_equal(sharded.broken.removed_u, solo.broken.removed_u), label
    assert np.array_equal(sharded.broken.removed_v, solo.broken.removed_v), label
    assert np.array_equal(sharded.broken.cycle_mask, solo.broken.cycle_mask), label
    assert sharded.coverage == solo.coverage, label
    # convergence bookkeeping is part of the contract too: the sharded factor
    # must walk exactly the solo round structure
    assert (
        sharded.factor_result.frontier_history == solo.factor_result.frontier_history
    ), label
    assert (
        sharded.factor_result.proposals_per_iteration
        == solo.factor_result.proposals_per_iteration
    ), label


@pytest.mark.parametrize("devices", DEVICE_COUNTS)
@pytest.mark.parametrize("dtype", DTYPES, ids=["float32", "float64"])
@pytest.mark.parametrize("policy", POLICIES)
def test_sharded_matrix_is_bit_identical_to_solo(devices, dtype, policy):
    """The full ISSUE matrix: devices x dtypes x compaction policies."""
    a = random_graph(1234).astype(dtype)
    solo = extract_linear_forest(a, device=Device(record=False), compaction=policy)
    sharded = extract_linear_forest(
        a, device=DeviceGroup(devices, record=False), compaction=policy
    )
    assert_result_equal(sharded, solo, f"devices={devices}")
    assert sharded.tridiagonal.d.dtype == np.dtype(dtype)


@given(seed=st.integers(0, 2**32 - 1), devices=st.sampled_from(DEVICE_COUNTS))
@SETTINGS
def test_random_graphs_shard_bit_identically(seed, devices):
    a = random_graph(seed)
    solo = extract_linear_forest(a, device=Device(record=False))
    sharded = extract_linear_forest(a, devices=devices)
    assert_result_equal(sharded, solo, f"seed={seed} devices={devices}")


@given(seed=st.integers(0, 2**32 - 1))
@SETTINGS
def test_one_device_group_is_bit_identical_to_solo(seed):
    """devices=1 is the degenerate shard: same engine, no halo, same bits."""
    a = random_graph(seed)
    solo = extract_linear_forest(a, device=Device(record=False))
    group = DeviceGroup(1)
    sharded = extract_linear_forest(a, device=group)
    assert_result_equal(sharded, solo, f"seed={seed}")
    # a single shard owns everything: nothing can cross the interconnect
    assert group.interconnect.transfer_count == 0
    assert group.interconnect.total_bytes() == 0


@given(seed=st.integers(0, 2**32 - 1), devices=st.sampled_from((2, 3)))
@SETTINGS
def test_unmerged_scan_shards_bit_identically(seed, devices):
    a = random_graph(seed)
    solo = extract_linear_forest(a, device=Device(record=False), merged_scan=False)
    sharded = extract_linear_forest(
        a, devices=devices, merged_scan=False
    )
    assert_result_equal(sharded, solo, f"seed={seed}")


def test_non_default_config_shards_bit_identically():
    config = ParallelFactorConfig(n=2, max_iterations=7, m=3, k_m=1, p=0.3, seed=9)
    for devices in DEVICE_COUNTS:
        a = aniso2(7)
        solo = extract_linear_forest(a, config, device=Device(record=False))
        sharded = extract_linear_forest(a, config, devices=devices)
        assert_result_equal(sharded, solo, f"devices={devices}")


def test_shuffled_batch_members_shard_to_permuted_results():
    """Sharding composes with batching: member results only permute."""
    from repro.batch import extract_linear_forest_batch

    members = [random_graph(900 + i) for i in range(4)]
    order = [2, 0, 3, 1]
    group_a = DeviceGroup(3, record=False)
    group_b = DeviceGroup(3, record=False)
    forward = extract_linear_forest_batch(members, device=group_a)
    shuffled = extract_linear_forest_batch(
        [members[i] for i in order], device=group_b
    )
    for pos, i in enumerate(order):
        fwd = forward.members[i]
        shf = shuffled.members[pos]
        assert np.array_equal(shf.forest.neighbors, fwd.forest.neighbors), i
        assert np.array_equal(shf.paths.path_id, fwd.paths.path_id), i
        assert np.array_equal(shf.paths.position, fwd.paths.position), i
        assert np.array_equal(shf.perm, fwd.perm), i
        assert np.array_equal(shf.tridiagonal.d, fwd.tridiagonal.d), i
        assert shf.coverage == fwd.coverage, i


def test_batch_members_under_sharding_match_solo_members():
    """A sharded batch run reproduces each member's solo (unsharded) bits."""
    from repro.batch import extract_linear_forest_batch

    members = [random_graph(700 + i) for i in range(3)]
    batch = extract_linear_forest_batch(members, device=DeviceGroup(4, record=False))
    for i, a in enumerate(members):
        solo = extract_linear_forest(a, device=Device(record=False))
        member = batch.members[i]
        assert np.array_equal(member.forest.neighbors, solo.forest.neighbors), i
        assert np.array_equal(member.paths.path_id, solo.paths.path_id), i
        assert np.array_equal(member.paths.position, solo.paths.position), i
        assert np.array_equal(member.perm, solo.perm), i
        assert np.array_equal(member.tridiagonal.d, solo.tridiagonal.d), i
        assert member.coverage == solo.coverage, i


@pytest.mark.parametrize("devices", DEVICE_COUNTS)
def test_float32_dtype_survives_sharding(devices):
    a = aniso2(6).astype(np.float32)
    sharded = extract_linear_forest(a, devices=devices)
    assert sharded.tridiagonal.d.dtype == np.float32
    solo = extract_linear_forest(a, device=Device(record=False))
    assert_result_equal(sharded, solo, f"devices={devices}")
