"""Property tests: Eq. 4 read from the extracted bands is Eq. 4, bit for bit.

:func:`repro.core.coverage.band_coverage` takes each forest edge's two
couplings from ``du[k]`` and ``dl[k + 1]`` of the tridiagonal system that
the extraction just built, instead of making a pass over every nonzero of
``A`` as :func:`repro.core.coverage.coverage` does.  Both the pipeline and
the delta engine report it as ``result.coverage``.  It must agree with
``coverage(a, forest)`` in every bit, on one device and on a sharded group
(whose bands are scattered shard by shard), for non-symmetric ``A``, in
float32 and with stored ``-0.0`` entries.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import extract_linear_forest
from repro.core.coverage import band_coverage, coverage
from repro.device import Device, DeviceGroup
from repro.graphs import aniso2
from repro.sparse import CSRMatrix

from .test_delta_splice_properties import random_matrix

SETTINGS = settings(max_examples=30, deadline=None)


def assert_band_coverage_is_coverage(a, device) -> None:
    result = extract_linear_forest(a, device=device)
    want = coverage(a, result.forest)
    got = band_coverage(a, result.forest, result.perm, result.tridiagonal)
    assert got.hex() == want.hex()
    assert result.coverage.hex() == want.hex()


@given(
    seed=st.integers(0, 2**32 - 1),
    symmetric=st.booleans(),
    dtype=st.sampled_from([np.float32, np.float64]),
    n_devices=st.sampled_from([1, 3]),
)
@SETTINGS
def test_band_coverage_is_coverage_bit_for_bit(seed, symmetric, dtype, n_devices):
    a = random_matrix(seed, symmetric=symmetric, dtype=dtype)
    device = Device(record=False) if n_devices == 1 else DeviceGroup(n_devices)
    assert_band_coverage_is_coverage(a, device)


@given(seed=st.integers(0, 2**32 - 1), dtype=st.sampled_from([np.float32, np.float64]))
@settings(max_examples=8, deadline=None)
def test_band_coverage_on_a_scaled_grid_with_negative_zeros(seed, dtype):
    """A long-path input: ANISO2 with every entry scaled on its own and a
    tenth of the couplings stored as ``-0.0`` in one direction."""
    rng = np.random.default_rng(seed)
    grid = aniso2(24)
    data = grid.data * rng.uniform(0.5, 2.0, grid.nnz)
    data[rng.random(grid.nnz) < 0.1] = -0.0
    a = CSRMatrix(grid.indptr, grid.indices, data, grid.shape).astype(dtype)
    for device in (Device(record=False), DeviceGroup(3)):
        assert_band_coverage_is_coverage(a, device)
