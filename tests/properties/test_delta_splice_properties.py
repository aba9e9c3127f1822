"""Property tests: the delta engine's edited prepared graph is a full
preparation of the edited matrix, array for array.

:func:`repro.delta.apply_edits` splices the batch's ``|w|`` into the
previous prepared graph when that graph records that it is
``|A| - diag(|A|)`` itself (``A'`` symmetric), and prepares the edited matrix
from scratch otherwise.  Either way ``updated.result.graph`` must equal
``prepare_graph(updated.matrix)`` in every array and in dtype, carry no proof
that graph lacks, and the whole result must equal a scratch extraction.  The
inputs cover both branches (symmetric and non-symmetric ``A``), float32,
stored zeros (``+0.0`` and ``-0.0``), empty rows, deletes of absent pairs and
repeated pairs where the later edit wins.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import extract_linear_forest
from repro.delta import EditBatch, apply_edits
from repro.device import Device
from repro.graphs import aniso2
from repro.sparse import PreparedGraph, prepare_graph
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix

from .test_delta_properties import assert_same_extraction

SETTINGS = settings(max_examples=30, deadline=None)


def random_matrix(seed: int, *, symmetric: bool, dtype) -> CSRMatrix:
    """A random sparse matrix with a diagonal on most rows, a few empty rows
    and a few stored zeros of either sign.  ``symmetric=False`` scales every
    entry on its own and drops some mirror entries."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 40))
    m = int(rng.integers(n, 4 * n))
    u = rng.integers(0, n, m)
    v = rng.integers(0, n, m)
    pairs = np.unique(np.stack([np.minimum(u, v), np.maximum(u, v)], axis=1), axis=0)
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    empty = rng.choice(n, size=min(2, n), replace=False)
    pairs = pairs[~np.isin(pairs, empty).any(axis=1)]
    w = rng.uniform(-3.0, 3.0, len(pairs))
    rows = np.concatenate([pairs[:, 0], pairs[:, 1]])
    cols = np.concatenate([pairs[:, 1], pairs[:, 0]])
    vals = np.concatenate([w, w])
    if not symmetric:
        vals = vals * rng.uniform(0.5, 2.0, vals.size)
        mirror = rng.random(vals.size) < 0.85
        rows, cols, vals = rows[mirror], cols[mirror], vals[mirror]
    zeros = rng.random(vals.size) < 0.1
    vals[zeros] = np.where(rng.random(int(zeros.sum())) < 0.5, 0.0, -0.0)
    diag = np.setdiff1d(np.arange(n), empty)
    coo = COOMatrix(
        row=np.concatenate([rows, diag]),
        col=np.concatenate([cols, diag]),
        val=np.concatenate([vals, rng.uniform(4.0, 8.0, diag.size)]),
        shape=(n, n),
    )
    return coo.to_csr().astype(dtype)


def random_batch(a: CSRMatrix, seed: int) -> EditBatch:
    """Sets, deletes of stored and of absent pairs, and repeats of one pair
    (the last edit wins), some of them on empty rows."""
    rng = np.random.default_rng(seed)
    n = a.n_rows
    stored = np.flatnonzero(a.nnz_rows != a.indices)
    dicts = []
    for _ in range(int(rng.integers(1, 9))):
        if stored.size and rng.random() < 0.5:
            k = int(rng.choice(stored))
            u, v = int(a.nnz_rows[k]), int(a.indices[k])
        else:
            u, v = (int(x) for x in rng.choice(n, size=2, replace=False))
        for _ in range(1 + int(rng.random() < 0.2)):  # sometimes twice
            if rng.random() < 0.3:
                dicts.append({"u": u, "v": v, "delete": True})
            else:
                dicts.append({"u": v, "v": u, "w": float(rng.uniform(-4.0, 4.0)) or 1.0})
    return EditBatch.from_dicts(dicts)


def assert_same_graph(graph: CSRMatrix, want: CSRMatrix) -> None:
    assert graph.shape == want.shape
    assert graph.data.dtype == want.data.dtype
    assert np.array_equal(graph.indptr, want.indptr)
    assert np.array_equal(graph.indices, want.indices)
    # bitwise: the prepared values are absolute, so -0.0 would be a bug
    assert graph.data.tobytes() == want.data.tobytes()


@given(
    seed=st.integers(0, 2**32 - 1),
    symmetric=st.booleans(),
    dtype=st.sampled_from([np.float32, np.float64]),
    max_region_fraction=st.sampled_from([0.0, 1.0]),
)
@SETTINGS
def test_edited_graph_is_the_preparation_of_the_edited_matrix(
    seed, symmetric, dtype, max_region_fraction
):
    a = random_matrix(seed, symmetric=symmetric, dtype=dtype)
    edits = random_batch(a, seed ^ 0xE417)
    previous = extract_linear_forest(a, device=Device(record=False))
    updated = apply_edits(
        previous, edits, a, device=Device(record=False),
        max_region_fraction=max_region_fraction,
    )
    assert_same_graph(updated.result.graph, prepare_graph(updated.matrix))
    graph, want = updated.result.graph, prepare_graph(updated.matrix)
    assert isinstance(graph, PreparedGraph)
    assert graph.symmetric == want.symmetric
    assert want.diagonal_only or not graph.diagonal_only
    fresh = extract_linear_forest(updated.matrix, device=Device(record=False))
    assert_same_extraction(updated.result, fresh, f"seed={seed}")


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=4, deadline=None)
def test_non_symmetric_delta_is_bit_identical_on_the_delta_path(seed):
    """ANISO2 with every entry scaled on its own: ``A'`` is not symmetric,
    so the edited matrix is prepared in full, and a clustered batch still
    takes the true delta path."""
    g = 128
    rng = np.random.default_rng(seed)
    grid = aniso2(g)
    a = CSRMatrix(
        grid.indptr, grid.indices, grid.data * rng.uniform(0.5, 2.0, grid.nnz), grid.shape
    )
    r0, c0 = (int(x) for x in rng.integers(0, g - 9, size=2))
    window = [(r0 + dr) * g + c0 + dc for dr in range(9) for dc in range(9)]
    dicts = []
    for _ in range(40):
        u, v = (int(x) for x in rng.choice(window, size=2, replace=False))
        if rng.random() < 0.25:
            dicts.append({"u": u, "v": v, "delete": True})
        else:
            dicts.append({"u": u, "v": v, "w": float(rng.uniform(-4.0, 4.0)) or 1.0})
    previous = extract_linear_forest(a, device=Device(record=False))
    updated = apply_edits(
        previous, EditBatch.from_dicts(dicts), a, device=Device(record=False)
    )
    assert updated.stats.fallback is None
    assert_same_graph(updated.result.graph, prepare_graph(updated.matrix))
    fresh = extract_linear_forest(updated.matrix, device=Device(record=False))
    assert_same_extraction(updated.result, fresh, f"seed={seed}")
