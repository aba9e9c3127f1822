"""SciPy as an independent differential oracle for the sparse builders.

``COOMatrix.to_csr``, ``CSRMatrix.is_symmetric``, ``prepare_graph`` and
``apply_edits_to_matrix`` are rebuilt sort-free on the CSR arrays; SciPy
(and, for the edit splice, a plain dict) computes the same matrices by a
different route.  Weights are integer-valued, so duplicate sums are exact in
any order and the comparison is bitwise: ``indptr``, ``indices``, ``data``
and the value dtype.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.delta import EditBatch, apply_edits_to_matrix
from repro.sparse import COOMatrix, CSRMatrix, prepare_graph
from repro.sparse.build import absolute_offdiag

sp = pytest.importorskip("scipy.sparse")

SETTINGS = settings(max_examples=120, deadline=None)
DTYPES = st.sampled_from([np.float64, np.float32])


@st.composite
def triplets(draw, square=False, max_n=9):
    """COO triplets with duplicates, explicit zeros and empty rows (rows are
    drawn from a subset of the row range)."""
    n_rows = draw(st.integers(0, max_n))
    n_cols = n_rows if square else draw(st.integers(0, max_n))
    dtype = draw(DTYPES)
    if n_rows == 0 or n_cols == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, np.empty(0, dtype=dtype), (n_rows, n_cols)
    used_rows = draw(st.lists(st.integers(0, n_rows - 1), min_size=1, max_size=n_rows))
    k = draw(st.integers(0, 3 * max_n))
    row = draw(st.lists(st.sampled_from(used_rows), min_size=k, max_size=k))
    col = draw(st.lists(st.integers(0, n_cols - 1), min_size=k, max_size=k))
    val = draw(st.lists(st.integers(-4, 4), min_size=k, max_size=k))
    if square and draw(st.booleans()):
        # mirrored entries: symmetric patterns, and (with a perturbation)
        # pattern-symmetric matrices with asymmetric values
        row, col, val = row + col, col + row, val + val
        if val and draw(st.booleans()):
            val[draw(st.integers(0, len(val) - 1))] += 1
    return (
        np.array(row, dtype=np.int64),
        np.array(col, dtype=np.int64),
        np.array(val, dtype=dtype),
        (n_rows, n_cols),
    )


def canonical(m):
    """Duplicates summed, indices sorted; explicit zeros are kept (as
    ``to_csr`` keeps them)."""
    m = m.tocsr()
    m.sum_duplicates()
    m.sort_indices()
    return m


def scipy_csr(row, col, val, shape):
    return canonical(sp.coo_array((val, (row, col)), shape=shape))


def assert_same_csr(ours: CSRMatrix, theirs) -> None:
    assert ours.shape == theirs.shape
    assert ours.data.dtype == theirs.data.dtype
    assert np.array_equal(ours.indptr, theirs.indptr)
    assert np.array_equal(ours.indices, theirs.indices)
    assert np.array_equal(ours.data, theirs.data)


@given(triplets())
@SETTINGS
def test_to_csr_matches_scipy(t):
    row, col, val, shape = t
    assert_same_csr(COOMatrix(row, col, val, shape).to_csr(), scipy_csr(*t))


@given(triplets(square=True))
@SETTINGS
def test_is_symmetric_matches_scipy(t):
    ours = COOMatrix(*t).to_csr()
    theirs = scipy_csr(*t)
    # an explicit zero without a stored mirror is a pattern asymmetry; the
    # value comparison A != Aᵀ alone cannot see it
    pattern = theirs.copy()
    pattern.data = np.ones_like(pattern.data)
    pattern_symmetric = (pattern != pattern.T).nnz == 0
    assert ours.is_pattern_symmetric() == pattern_symmetric
    assert ours.is_symmetric() == (pattern_symmetric and (theirs != theirs.T).nnz == 0)


def test_is_symmetric_without_explicit_zeros_is_the_value_test():
    a = COOMatrix([0, 1, 1], [1, 0, 1], [2.0, 2.0, 5.0], (2, 2)).to_csr()
    assert a.is_symmetric()
    b = COOMatrix([0, 1], [1, 0], [2.0, 3.0], (2, 2)).to_csr()
    assert not b.is_symmetric() and b.is_pattern_symmetric()
    assert b.is_symmetric(tol=1.0)
    assert not COOMatrix([0], [1], [2.0], (2, 2)).to_csr().is_symmetric()
    assert not COOMatrix([0], [1], [2.0], (2, 3)).to_csr().is_symmetric()


#: nnz at both sides of every change of the symmetry test's packing width
#: (the bit length of nnz - 1)
WIDTH_CASES = sorted({m for k in range(1, 11) for m in (2**k, 2**k + 1)})


def mirrored_entries(count, n, rng):
    """``count`` distinct entries of an n×n pattern in mirrored pairs, plus
    one diagonal entry when ``count`` is odd, with mirrored values."""
    upper = np.flatnonzero(np.triu(np.ones((n, n), dtype=bool), 1))
    i, j = np.divmod(rng.choice(upper, count // 2, replace=False), n)
    odd = np.arange(count % 2)
    vals = rng.integers(1, 5, i.size).astype(float)
    return (
        [np.concatenate([i, j, odd])],
        [np.concatenate([j, i, odd])],
        [np.concatenate([vals, vals, np.ones(odd.size)])],
    )


def width_case(nnz, variant, seed):
    """A matrix with exactly ``nnz`` entries: mirrored pairs, and per
    ``variant`` one unequal mirrored value, one entry without a mirror, or
    a directed triangle (every row as long as its column, no mirrors) on
    three vertices of their own."""
    rng = np.random.default_rng(seed)
    own = {"symmetric": 0, "unequal": 0, "dangling": 1, "triangle": 3}[variant]
    n = int(np.ceil(np.sqrt(nnz))) + 2
    rows, cols, vals = mirrored_entries(nnz - own, n, rng)
    if variant == "unequal":
        vals[0][0] += 1
    extra = [(n, n + 1), (n + 1, n + 2), (n + 2, n)][:own]
    rows.append(np.array([x for x, _ in extra], dtype=np.int64))
    cols.append(np.array([y for _, y in extra], dtype=np.int64))
    vals.append(np.ones(own))
    return COOMatrix(
        np.concatenate(rows), np.concatenate(cols), np.concatenate(vals), (n + 3, n + 3)
    ).to_csr()


@pytest.mark.parametrize("nnz", WIDTH_CASES)
def test_mirror_order_at_every_packing_width(nnz):
    variants = ("symmetric", "unequal", "dangling", "triangle")
    for variant in variants if nnz >= 3 else variants[:3]:
        ours = width_case(nnz, variant, nnz)
        assert ours.nnz == nnz
        theirs = sp.csr_array((ours.data, ours.indices, ours.indptr), shape=ours.shape)
        pattern = theirs.copy()
        pattern.data = np.ones_like(pattern.data)
        pattern_symmetric = (pattern != pattern.T).nnz == 0
        assert pattern_symmetric == (variant in ("symmetric", "unequal"))
        assert ours.is_pattern_symmetric() == pattern_symmetric
        assert ours.is_symmetric() == (variant == "symmetric")
        assert ours.is_symmetric() == (pattern_symmetric and (theirs != theirs.T).nnz == 0)
        order = ours._mirror_order()
        if not pattern_symmetric:
            assert order is None
            continue
        # the mirror of entry k, as one argsort of the mirror keys finds it
        rows, n = ours.nnz_rows, ours.n_rows
        assert np.array_equal(order, np.argsort(ours.indices * n + rows, kind="stable"))
        assert np.array_equal(rows[order], ours.indices)
        assert np.array_equal(ours.indices[order], rows)


@given(triplets(square=True))
@SETTINGS
def test_prepare_graph_matches_scipy(t):
    ours = prepare_graph(COOMatrix(*t).to_csr())
    m = abs(scipy_csr(*t)).tocoo()
    off = m.row != m.col
    ref = canonical(sp.coo_array((m.data[off], (m.row[off], m.col[off])), shape=m.shape))
    ref.eliminate_zeros()
    if (ref != ref.T).nnz:
        ref = canonical(ref + ref.T)
    assert_same_csr(ours, ref)


@given(
    triplets(square=True),
    st.lists(st.sampled_from([0.0, -0.0, np.nan, np.inf, -2.5, 3.0]), max_size=4),
)
@SETTINGS
def test_absolute_offdiag_matches_the_coo_expression(t, specials):
    """NaN, ±0 and ±inf are handled exactly as the COO rebuild handled them:
    zeros and NaN are dropped, infinities kept."""
    row, col, val, shape = t
    val = val.copy()
    val[: len(specials)] = np.asarray(specials[: val.size], dtype=val.dtype)
    a = COOMatrix(row, col, val, shape).to_csr()
    coo = a.to_coo()
    off = coo.row != coo.col
    ref = COOMatrix(coo.row[off], coo.col[off], np.abs(coo.val[off]), a.shape)
    ours = absolute_offdiag(a)
    assert_same_csr(ours, ref.drop_zeros().to_csr())


# -- the edit splice -------------------------------------------------------------


@st.composite
def edited_matrices(draw):
    row, col, val, shape = draw(triplets(square=True))
    n = shape[0]
    a = COOMatrix(row, col, val, shape).to_csr()
    if n < 2:
        return a, EditBatch.empty()
    # a few distinct pairs, each edited several times: later edits win,
    # deletes may hit absent pairs, inserts may land in empty rows
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda p: p[0] != p[1]
            ),
            min_size=1,
            max_size=4,
        )
    )
    dicts = []
    for _ in range(draw(st.integers(1, 10))):
        u, v = draw(st.sampled_from(pairs))
        if draw(st.booleans()):
            u, v = v, u
        if draw(st.integers(0, 2)) == 0:
            dicts.append({"u": u, "v": v, "delete": True})
        else:
            dicts.append({"u": u, "v": v, "w": float(draw(st.sampled_from([-3, 1, 2, 7])))})
    return a, EditBatch.from_dicts(dicts)


def dict_reference(a: CSRMatrix, edits: EditBatch):
    entries = {
        (int(i), int(j)): v
        for i, j, v in zip(a.nnz_rows, a.indices, a.data)
    }
    for e in edits.to_dicts():
        for key in ((e["u"], e["v"]), (e["v"], e["u"])):
            if e.get("delete"):
                entries.pop(key, None)
            else:
                entries[key] = a.data.dtype.type(e["w"])
    keys = sorted(entries)
    return scipy_csr(
        np.array([k[0] for k in keys], dtype=np.int64),
        np.array([k[1] for k in keys], dtype=np.int64),
        np.array([entries[k] for k in keys], dtype=a.data.dtype),
        a.shape,
    )


@given(edited_matrices())
@SETTINGS
def test_apply_edits_to_matrix_matches_a_dict_reference(case):
    a, edits = case
    assert_same_csr(apply_edits_to_matrix(a, edits), dict_reference(a, edits))


def test_apply_edits_to_matrix_named_cases():
    # row 2 is empty; (0, 1) is edited three times, (1, 3) is absent
    a = COOMatrix([0, 1, 1, 3], [1, 0, 1, 0], [5.0, 5.0, 9.0, 4.0], (4, 4)).to_csr()
    edits = EditBatch.from_dicts([
        {"u": 0, "v": 1, "w": 2.0},
        {"u": 1, "v": 0, "delete": True},
        {"u": 0, "v": 1, "w": 6.0},  # later edit wins over the delete
        {"u": 1, "v": 3, "delete": True},  # delete of an absent pair
        {"u": 2, "v": 0, "w": 1.5},  # insert into the empty row
    ])
    out = apply_edits_to_matrix(a, edits)
    assert_same_csr(out, dict_reference(a, edits))
    np.testing.assert_array_equal(out.to_dense(), [
        [0.0, 6.0, 1.5, 0.0],
        [6.0, 9.0, 0.0, 0.0],
        [1.5, 0.0, 0.0, 0.0],
        [4.0, 0.0, 0.0, 0.0],
    ])


# -- the span of the splice ------------------------------------------------------
# The splice rebuilds only the entries from the first edited position to the
# last and copies the rest as two slices.  The matrix below has no diagonal
# entry in row 0, so its first entry is (0, 1), and its rows 4 and 5 are
# empty, so an edit there lands at position nnz.

SPAN_MATRIX = (
    [0, 1, 1, 1, 2, 2, 2, 3],
    [1, 0, 1, 2, 1, 2, 3, 2],
    [2.0, 2.0, 5.0, -1.0, -1.0, 4.0, 3.0, 3.0],
    (6, 6),
)
SPAN_CASES = {
    "starts-at-entry-0": [{"u": 1, "v": 0, "w": 7.0}],
    "inserts-at-nnz": [{"u": 5, "v": 4, "w": 1.5}],
    "spans-the-whole-matrix": [
        {"u": 0, "v": 1, "w": -6.0},
        {"u": 2, "v": 3, "delete": True},
        {"u": 4, "v": 5, "w": 1.5},
    ],
    "deletes-empty-rows": [{"u": 0, "v": 1, "delete": True}, {"u": 3, "v": 2, "delete": True}],
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@pytest.mark.parametrize("edits", list(SPAN_CASES.values()), ids=list(SPAN_CASES))
def test_apply_edits_to_matrix_at_the_span_ends(edits, dtype):
    row, col, val, shape = SPAN_MATRIX
    a = COOMatrix(row, col, np.array(val, dtype=dtype), shape).to_csr()
    batch = EditBatch.from_dicts(edits)
    out = apply_edits_to_matrix(a, batch)
    assert_same_csr(out, dict_reference(a, batch))
    assert not np.shares_memory(out.indices, a.indices)
    assert not np.shares_memory(out.data, a.data)
