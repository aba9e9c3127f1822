"""The CSR column-order check against a row-by-row oracle.

``CSRMatrix`` must accept exactly the matrices whose every row has strictly
increasing columns, whatever the empty rows around the row boundaries.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import FormatError
from repro.sparse import CSRMatrix

N_COLS = 6
COLS = st.integers(0, N_COLS - 1)


def _rows_are_sorted(rows) -> bool:
    """The oracle: inside every row, each column is below the next."""
    return all(a < b for row in rows for a, b in zip(row, row[1:]))


def _csr(rows) -> CSRMatrix:
    indptr = np.cumsum([0] + [len(row) for row in rows])
    indices = np.array([c for row in rows for c in row], dtype=np.int64)
    return CSRMatrix(indptr, indices, np.ones(indices.size), (len(rows), N_COLS))


@st.composite
def row_lists(draw):
    """Rows of a matrix; about half the draws keep every row sorted."""
    sorted_row = st.lists(COLS, max_size=5, unique=True).map(sorted)
    any_row = st.one_of(sorted_row, st.lists(COLS, max_size=5))
    return draw(st.lists(draw(st.sampled_from([sorted_row, any_row])), max_size=8))


@given(row_lists())
@example([[], [], [1, 3], [0, 5], [], []])  # leading and trailing empty rows
@example([[], [], [3, 1]])  # a decrease in the first pair after leading empty rows
@example([[1, 4], [0, 2, 2]])  # a repeated column at the end of a row
@example([[1, 0], [], []])  # a decrease in the last pair before trailing empty rows
@example([[5], [], [], [0, 1]])  # a decrease exactly at a boundary after empty rows
@example([[5], [], [], [4, 2]])  # ... followed by a decrease inside the row
@example([[3]])  # one entry
@example([[]])  # no entry
@example([])  # no row
@settings(max_examples=300, deadline=None)
def test_column_order_check_matches_the_row_oracle(rows):
    if _rows_are_sorted(rows):
        a = _csr(rows)
        assert a.nnz == sum(len(row) for row in rows)
        for i, row in enumerate(rows):
            assert a.row(i)[0].tolist() == row
    else:
        with pytest.raises(
            FormatError, match="column indices must be strictly increasing within each row"
        ):
            _csr(rows)
