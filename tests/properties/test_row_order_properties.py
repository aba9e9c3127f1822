"""Property tests: the row-local proposal order equals the lexsort.

``csr_proposal_order(graph, lo, hi)`` sorts each CSR row of ``[lo, hi)`` on
its own: one padded ``np.argsort(axis=1)`` when the padding stays small,
else (a hub row) the global ``proposal_order``.  Either way it
must equal ``np.lexsort((position, -data, rows))`` over the range's
nonzeros, entry for entry: ties, signed zeros, infinities and float32
values included.  The engines pass only the non-negative weights that
``validate_proposition_weights`` admits; negative values and NaN are drawn
as well, because they would expose a pad that sorts ahead of a key.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import proposer
from repro.core.proposer import csr_proposal_order
from repro.sparse.csr import CSRMatrix

SPECIAL = [0.0, -0.0, 1.0, 2.5, 1e-300, 7.0, np.inf, -1.0, -np.inf, np.nan]
N_COLS = 40


def lexsort_reference(graph: CSRMatrix, lo: int, hi: int) -> np.ndarray:
    s0, s1 = int(graph.indptr[lo]), int(graph.indptr[hi])
    rows = graph.nnz_rows[s0:s1]
    position = np.arange(rows.size, dtype=np.int64)
    return np.lexsort((position, -graph.data[s0:s1], rows))


def csr_of(counts, values, dtype, seed=0) -> CSRMatrix:
    """A CSR matrix with ``counts[r]`` entries in row ``r``, at sorted
    random columns, holding ``values`` in entry order."""
    rng = np.random.default_rng(seed)
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    n_cols = max([N_COLS, *counts])
    indices = np.concatenate(
        [np.sort(rng.choice(n_cols, c, replace=False)) for c in counts] or [[]]
    ).astype(np.int64)
    return CSRMatrix(
        indptr=indptr, indices=indices, data=np.asarray(values, dtype=dtype),
        shape=(len(counts), n_cols),
    )


def assert_matches_lexsort(graph: CSRMatrix, lo: int, hi: int) -> None:
    assert np.array_equal(csr_proposal_order(graph, lo, hi), lexsort_reference(graph, lo, hi))


@st.composite
def csr_ranges(draw):
    n_rows = draw(st.integers(1, 12))
    counts = draw(st.lists(st.integers(0, 14), min_size=n_rows, max_size=n_rows))
    nnz = sum(counts)
    values = draw(
        st.one_of(
            st.lists(st.sampled_from(SPECIAL), min_size=nnz, max_size=nnz),
            st.lists(st.floats(-10.0, 10.0, width=32), min_size=nnz, max_size=nnz),
        )
    )
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    lo = draw(st.integers(0, n_rows))
    hi = draw(st.integers(lo, n_rows))
    return csr_of(counts, values, dtype, draw(st.integers(0, 2**32 - 1))), lo, hi


@given(csr_ranges())
@settings(max_examples=300, deadline=None)
def test_row_local_order_equals_the_lexsort(case):
    graph, lo, hi = case
    assert_matches_lexsort(graph, lo, hi)
    assert_matches_lexsort(graph, 0, graph.n_rows)


@pytest.fixture
def global_sorts(monkeypatch):
    """Counts the calls that fall back to the global sort."""
    calls = []
    real = proposer.proposal_order

    def spy(rows, data):
        calls.append(rows.size)
        return real(rows, data)

    monkeypatch.setattr(proposer, "proposal_order", spy)
    return calls


def test_long_rows_take_the_padded_sort(global_sorts):
    counts = [8, 0, 3, 10, 5]
    values = np.tile([2.0, 0.0, -0.0, 2.0, np.inf, -1.0, np.nan], 6)[: sum(counts)]
    graph = csr_of(counts, values, np.float64)
    for lo, hi in [(0, 5), (0, 1), (3, 4), (1, 4)]:
        assert_matches_lexsort(graph, lo, hi)
    assert global_sorts == []


def test_a_single_row():
    for count in (1, 8, 30):
        graph = csr_of([count], np.ones(count), np.float32)  # all tied
        assert_matches_lexsort(graph, 0, 1)
        assert_matches_lexsort(graph, 0, 0)
        assert_matches_lexsort(graph, 1, 1)


def test_short_rows_take_the_padded_sort(global_sorts):
    # rows of at most 7 entries, ecology1's case (d_max 4) among them
    counts = [7, 2, 0, 4]
    graph = csr_of(counts, np.arange(sum(counts), dtype=float) % 3, np.float64)
    assert_matches_lexsort(graph, 0, 4)
    assert global_sorts == []


def test_a_hub_row_takes_the_global_sort(global_sorts):
    # one row of 200 entries among 100 of one: padding would need 20 200
    # slots for 300 nonzeros
    counts = [1] * 50 + [200] + [1] * 50
    graph = csr_of(counts, np.arange(300, dtype=float) % 7, np.float64)
    assert_matches_lexsort(graph, 0, len(counts))
    assert global_sorts == [300]
    # without the hub, the remaining rows are too short to pad
    assert_matches_lexsort(graph, 51, len(counts))


def test_empty_rows_and_ranges(global_sorts):
    graph = csr_of([0, 0, 0], [], np.float64)
    for lo, hi in [(0, 3), (1, 2), (2, 2)]:
        assert csr_proposal_order(graph, lo, hi).size == 0
    graph = csr_of([0, 9, 0, 0, 11, 0], np.linspace(1.0, 0.0, 20), np.float64)
    assert_matches_lexsort(graph, 0, 6)
    assert_matches_lexsort(graph, 2, 4)  # rows without entries
