"""Property tests: the sort-free host steps equal their sorting references.

``forest_permutation`` places each vertex by a histogram, an exclusive scan
and a scatter; the split radix sort of :mod:`repro.sort` on the packed
``(path id, position)`` keys is the reference it must equal, for every
``PathInfo`` the pipelines produce.  ``proposal_order`` replaces the
three-key ``np.lexsort`` of the proposition engines and must equal it
entry for entry.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import extract_linear_forest_batch
from repro.core import extract_linear_forest, forest_permutation
from repro.core.paths import PathInfo
from repro.core.proposer import proposal_order
from repro.delta import apply_edits
from repro.device import Device
from repro.graphs import aniso2, random_weighted_graph
from repro.sort import pack_keys, radix_argsort

from .test_delta_properties import clustered_edits

SETTINGS = settings(max_examples=15, deadline=None)


def radix_reference(info: PathInfo) -> np.ndarray:
    return radix_argsort(pack_keys(info.path_id, info.position))


def assert_placement_matches(result) -> None:
    ref = radix_reference(result.paths)
    assert np.array_equal(forest_permutation(result.paths), ref)
    assert np.array_equal(result.perm, ref)


def random_graph(seed: int, n_min: int = 4, n_max: int = 48):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_min, n_max + 1))
    return random_weighted_graph(n, int(rng.integers(n, 4 * n)), rng)


@given(seed=st.integers(0, 2**32 - 1))
@SETTINGS
def test_solo_placement_equals_the_radix_sort(seed):
    assert_placement_matches(
        extract_linear_forest(random_graph(seed), device=Device(record=False))
    )


def test_solo_placement_on_a_grid():
    assert_placement_matches(extract_linear_forest(aniso2(24), device=Device(record=False)))


@given(seed=st.integers(0, 2**32 - 1), n_members=st.integers(2, 4))
@SETTINGS
def test_batch_packed_placement_equals_the_radix_sort(seed, n_members):
    members = [random_graph(seed + k) for k in range(n_members)]
    batch = extract_linear_forest_batch(members)
    assert_placement_matches(batch.packed)
    for member in batch.members:
        assert_placement_matches(member)


@given(seed=st.integers(0, 2**32 - 1))
@SETTINGS
def test_delta_rescanned_placement_equals_the_radix_sort(seed):
    a = aniso2(32)
    previous = extract_linear_forest(a, device=Device(record=False))
    updated = apply_edits(
        previous, clustered_edits(32, seed), a,
        device=Device(record=False), max_region_fraction=1.0,
    )
    assert updated.stats.fallback is None
    assert_placement_matches(updated.result)


# -- proposal_order -------------------------------------------------------------

SPECIAL = [0.0, -0.0, 1.0, 2.5, 1e-300, 7.0, np.inf]


@st.composite
def proposal_inputs(draw):
    k = draw(st.integers(0, 40))
    n_rows = draw(st.integers(1, 6))
    rows = draw(st.lists(st.integers(0, n_rows - 1), min_size=k, max_size=k))
    if draw(st.booleans()):
        rows = sorted(rows)  # CSR order, as the engines pass it
    values = draw(st.lists(st.sampled_from(SPECIAL), min_size=k, max_size=k))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    return np.array(rows, dtype=np.int64), np.array(values, dtype=dtype)


@given(proposal_inputs())
@settings(max_examples=200, deadline=None)
def test_proposal_order_equals_the_lexsort(case):
    rows, data = case
    position = np.arange(rows.size, dtype=np.int64)
    assert np.array_equal(
        proposal_order(rows, data), np.lexsort((position, -data, rows))
    )


def test_proposal_order_named_cases():
    def check(rows, data):
        rows = np.asarray(rows, dtype=np.int64)
        position = np.arange(rows.size)
        assert np.array_equal(
            proposal_order(rows, data), np.lexsort((position, -data, rows))
        )

    check([], np.array([]))
    check([3, 3, 3, 3], np.array([1.0, 1.0, 1.0, 1.0]))  # one row, all tied
    check([0, 0, 1, 1], np.array([0.0, -0.0, -0.0, 0.0]))  # signed zeros tie
    check([0, 0, 0], np.array([np.inf, 5.0, np.inf]))
    check([1, 0, 1, 0], np.array([2.0, 3.0, 2.0, 1.0], dtype=np.float32))
    # rows this large would overflow the combined int64 key: lexsort fallback
    big = np.iinfo(np.int64).max // 2
    check([big, 0, big, 0], np.array([1.0, 2.0, 3.0, 2.0]))
