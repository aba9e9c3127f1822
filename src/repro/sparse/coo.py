"""Coordinate (COO) sparse matrix format.

COO is the staging format: builders assemble triplets here, duplicates are
summed, and :meth:`COOMatrix.to_csr` produces the canonical compute format.
The coefficient-extraction step of the linear-forest pipeline (Section 4.3 of
the paper) also walks the matrix in COO form, one simulated thread per
nonzero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import INDEX_DTYPE, VALUE_DTYPE, as_index_array, as_value_array, require
from ..errors import FormatError, ShapeError

__all__ = ["COOMatrix"]


@dataclass(frozen=True)
class COOMatrix:
    """An immutable coordinate-format sparse matrix.

    Attributes
    ----------
    row, col:
        int64 arrays of equal length with the nonzero coordinates.
    val:
        float64 array of nonzero values.
    shape:
        ``(n_rows, n_cols)``.
    """

    row: np.ndarray
    col: np.ndarray
    val: np.ndarray
    shape: tuple[int, int]

    def __post_init__(self) -> None:
        row = as_index_array(self.row, name="row")
        col = as_index_array(self.col, name="col")
        val = as_value_array(self.val, name="val")
        require(
            row.shape == col.shape == val.shape,
            f"row/col/val length mismatch: {row.shape}, {col.shape}, {val.shape}",
        )
        n_rows, n_cols = self.shape
        require(n_rows >= 0 and n_cols >= 0, f"invalid shape {self.shape}")
        if row.size:
            require(
                int(row.min()) >= 0 and int(row.max()) < n_rows,
                "row index out of range",
                FormatError,
            )
            require(
                int(col.min()) >= 0 and int(col.max()) < n_cols,
                "col index out of range",
                FormatError,
            )
        object.__setattr__(self, "row", row)
        object.__setattr__(self, "col", col)
        object.__setattr__(self, "val", val)
        object.__setattr__(self, "shape", (int(n_rows), int(n_cols)))

    # -- properties ----------------------------------------------------------
    @property
    def nnz(self) -> int:
        return int(self.row.size)

    @property
    def n_rows(self) -> int:
        return self.shape[0]

    @property
    def n_cols(self) -> int:
        return self.shape[1]

    # -- transforms ----------------------------------------------------------
    def sum_duplicates(self) -> "COOMatrix":
        """Return an equivalent matrix with duplicate coordinates summed."""
        if self.nnz == 0:
            return self
        keys = self.row * self.n_cols + self.col
        order = np.argsort(keys, kind="stable")
        keys_sorted = keys[order]
        val_sorted = self.val[order]
        boundary = np.empty(keys_sorted.size, dtype=bool)
        boundary[0] = True
        np.not_equal(keys_sorted[1:], keys_sorted[:-1], out=boundary[1:])
        starts = np.flatnonzero(boundary)
        summed = np.add.reduceat(val_sorted, starts)
        unique_keys = keys_sorted[starts]
        return COOMatrix(
            row=unique_keys // self.n_cols,
            col=unique_keys % self.n_cols,
            val=summed,
            shape=self.shape,
        )

    def drop_zeros(self) -> "COOMatrix":
        """Remove explicit zeros (``|v| <= 0``, so NaN goes too)."""
        keep = np.abs(self.val) > 0
        return COOMatrix(self.row[keep], self.col[keep], self.val[keep], self.shape)

    def transpose(self) -> "COOMatrix":
        return COOMatrix(self.col, self.row, self.val, (self.n_cols, self.n_rows))

    def to_csr(self):
        """Convert to CSR (duplicates summed, column indices sorted per row)."""
        from .csr import CSRMatrix

        # sum_duplicates leaves the entries in (row, col) order: the CSR order
        dedup = self.sum_duplicates()
        indptr = np.zeros(self.n_rows + 1, dtype=INDEX_DTYPE)
        np.cumsum(np.bincount(dedup.row, minlength=self.n_rows), out=indptr[1:])
        return CSRMatrix(
            indptr=indptr, indices=dedup.col, data=dedup.val, shape=self.shape
        )

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.shape, dtype=VALUE_DTYPE)
        np.add.at(dense, (self.row, self.col), self.val)
        return dense

    # -- constructors ----------------------------------------------------------
    @staticmethod
    def from_dense(dense: np.ndarray, tol: float = 0.0) -> "COOMatrix":
        src = np.asarray(dense)
        dtype = np.float32 if src.dtype == np.float32 else VALUE_DTYPE
        arr = np.asarray(src, dtype=dtype)
        if arr.ndim != 2:
            raise ShapeError(f"dense matrix must be 2-D, got ndim={arr.ndim}")
        row, col = np.nonzero(np.abs(arr) > tol)
        return COOMatrix(row, col, arr[row, col], arr.shape)
