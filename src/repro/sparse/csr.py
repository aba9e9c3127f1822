"""Compressed sparse row (CSR) format — the compute format of the paper.

Column indices are kept sorted within each row; several kernels rely on this
(binary-search edge-weight lookup, deterministic tie-breaking in the top-n
accumulator, which scans each row left to right exactly like Table 1 of the
paper).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .._validation import INDEX_DTYPE, VALUE_DTYPE, require
from ..errors import FormatError, ShapeError

__all__ = ["CSRMatrix", "matrix_digest"]


@dataclass(frozen=True)
class CSRMatrix:
    """An immutable CSR sparse matrix with sorted row segments.

    Attributes
    ----------
    indptr:
        int64 array of length ``n_rows + 1``; row ``i`` occupies
        ``indices[indptr[i]:indptr[i+1]]``.
    indices:
        int64 column indices, strictly increasing within each row.
    data:
        float64 values, aligned with ``indices``.
    shape:
        ``(n_rows, n_cols)``.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    def __post_init__(self) -> None:
        indptr = np.ascontiguousarray(self.indptr, dtype=INDEX_DTYPE)
        indices = np.ascontiguousarray(self.indices, dtype=INDEX_DTYPE)
        # float32 is preserved (the paper benchmarks in single precision);
        # any other dtype is coerced to float64
        value_dtype = np.float32 if np.asarray(self.data).dtype == np.float32 else VALUE_DTYPE
        data = np.ascontiguousarray(self.data, dtype=value_dtype)
        n_rows, n_cols = self.shape
        require(indptr.ndim == 1 and indices.ndim == 1 and data.ndim == 1, "CSR arrays must be 1-D")
        require(indptr.size == n_rows + 1, f"indptr must have length {n_rows + 1}, got {indptr.size}", FormatError)
        require(indices.size == data.size, "indices/data length mismatch", FormatError)
        require(int(indptr[0]) == 0, "indptr[0] must be 0", FormatError)
        require(int(indptr[-1]) == indices.size, "indptr[-1] must equal nnz", FormatError)
        require(bool(np.all(np.diff(indptr) >= 0)), "indptr must be non-decreasing", FormatError)
        if indices.size:
            require(int(indices.min()) >= 0 and int(indices.max()) < n_cols, "column index out of range", FormatError)
            # strictly increasing inside each row: a decrease is only allowed
            # at row boundaries.  step[k] compares entries k and k + 1, so the
            # boundary before a row starting at 0 < p < nnz is step[p - 1];
            # those starts are the interior of the sorted indptr.
            step = np.diff(indices)
            lo = int(np.searchsorted(indptr, 0, side="right"))
            hi = int(np.searchsorted(indptr, indices.size, side="left"))
            step[indptr[lo:hi] - 1] = 1
            require(
                not step.size or int(step.min()) > 0,
                "column indices must be strictly increasing within each row",
                FormatError,
            )
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "shape", (int(n_rows), int(n_cols)))

    # -- properties ----------------------------------------------------------
    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    @property
    def n_rows(self) -> int:
        return self.shape[0]

    @property
    def n_cols(self) -> int:
        return self.shape[1]

    @cached_property
    def row_lengths(self) -> np.ndarray:
        """Number of nonzeros per row."""
        return np.diff(self.indptr)

    @cached_property
    def nnz_rows(self) -> np.ndarray:
        """Row index of every nonzero (the expanded form of ``indptr``)."""
        return np.repeat(np.arange(self.n_rows, dtype=INDEX_DTYPE), self.row_lengths)

    @property
    def mean_degree(self) -> float:
        """Mean number of nonzeros per row (the paper's mean graph degree)."""
        if self.n_rows == 0:
            return 0.0
        return self.nnz / self.n_rows

    # -- element access --------------------------------------------------------
    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Column indices and values of row ``i`` (views, do not mutate)."""
        lo, hi = int(self.indptr[i]), int(self.indptr[i + 1])
        return self.indices[lo:hi], self.data[lo:hi]

    def diagonal(self) -> np.ndarray:
        """The main diagonal as a dense vector (missing entries are 0).

        Allocated in the matrix value dtype, so float32 matrices keep their
        precision (the ``__post_init__`` promise).
        """
        n = min(self.shape)
        diag = np.zeros(n, dtype=self.data.dtype)
        rows = self.nnz_rows
        mask = rows == self.indices
        diag_rows = rows[mask]
        keep = diag_rows < n
        diag[diag_rows[keep]] = self.data[mask][keep]
        return diag

    def find(self, rows, cols) -> tuple[np.ndarray, np.ndarray]:
        """Where each ``(rows[i], cols[i])`` sits in the entry order, and
        whether it is stored.

        The position is the stored entry's, else where the entry would be
        inserted to keep its row sorted.  A vectorized binary search inside
        each queried row (``rows`` must lie in ``[0, n_rows)``): it reads
        about ``log2(row length)`` column indices per query and never the
        whole matrix.
        """
        rows = np.asarray(rows, dtype=INDEX_DTYPE)
        cols = np.asarray(cols, dtype=INDEX_DTYPE)
        pos = self.indptr[rows]
        if self.nnz == 0:
            return pos, np.zeros(pos.shape, dtype=bool)
        end = self.indptr[rows + 1]
        length = end - pos
        # the answer lies in [pos, pos + length]; each step halves length
        for _ in range(int(length.max(initial=0)).bit_length()):
            half = length >> 1
            probe = np.take(self.indices, pos + half, mode="clip")
            pos += (probe < cols) * (length - half)
            length = half
        stored = (pos < end) & (np.take(self.indices, pos, mode="clip") == cols)
        return pos, stored

    def gather(self, rows, cols) -> np.ndarray:
        """float64 values at positions ``(rows[i], cols[i])`` (0 where
        absent), read through :meth:`find` — the edge-weight lookup of the
        cycle-breaking scan."""
        pos, stored = self.find(rows, cols)
        out = np.zeros(pos.shape, dtype=VALUE_DTYPE)
        out[stored] = self.data[pos[stored]]
        return out

    def contains(self, rows, cols) -> np.ndarray:
        """Boolean mask: is ``(rows[i], cols[i])`` a stored nonzero?"""
        return self.find(rows, cols)[1]

    # -- structure predicates ----------------------------------------------------
    def _mirror_order(self) -> np.ndarray | None:
        """Position of each entry's mirror ``(j, i)``, or ``None`` when the
        pattern is not symmetric.

        One in-place sort of the packed keys ``(col << b) | k``, where ``k``
        is the entry's position and ``b`` the bit length of ``nnz - 1``,
        orders the entries by column and, within a column, by row, since
        positions rise with the row.  Every entry has a mirror exactly when
        that order's columns (the keys' high bits) are the CSR rows and its
        rows are the CSR columns; then ``order[k]`` is the mirror of entry
        ``k``.
        """
        if self.n_rows != self.n_cols:
            return None
        nnz = self.nnz
        b = max(nnz - 1, 0).bit_length()
        require(
            max(self.n_cols - 1, 0).bit_length() + b <= 63,
            "the symmetry test packs column and position into one int64, "
            f"which {self.n_cols} columns and {nnz} entries overflow "
            "(n and nnz below 2**31 always fit)",
        )
        keys = self.indices << b
        keys |= np.arange(nnz, dtype=INDEX_DTYPE)
        keys.sort()
        rows = self.nnz_rows
        if not np.array_equal(keys >> b, rows):
            return None
        keys &= (1 << b) - 1
        if not np.array_equal(rows[keys], self.indices):
            return None
        return keys

    def is_symmetric(self, tol: float = 0.0) -> bool:
        """Exact (or ``tol``-approximate) numeric symmetry check.

        Equal mirrored entries always match, an infinity mirrored by itself
        too; only the unequal ones are held to ``tol`` (a NaN never matches).
        """
        order = self._mirror_order()
        if order is None:
            return False
        mirror = self.data[order]
        unequal = self.data != mirror
        return not unequal.any() or bool(
            np.all(np.abs(self.data[unequal] - mirror[unequal]) <= tol)
        )

    def is_pattern_symmetric(self) -> bool:
        return self._mirror_order() is not None

    # -- transforms ----------------------------------------------------------
    def to_coo(self):
        from .coo import COOMatrix

        return COOMatrix(row=self.nnz_rows, col=self.indices, val=self.data, shape=self.shape)

    def transpose(self) -> "CSRMatrix":
        return self.to_coo().transpose().to_csr()

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.shape, dtype=VALUE_DTYPE)
        dense[self.nnz_rows, self.indices] = self.data
        return dense

    def astype(self, dtype) -> "CSRMatrix":
        """Copy with values converted to ``dtype`` (float32 or float64)."""
        dtype = np.dtype(dtype)
        if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise ShapeError(f"unsupported value dtype {dtype}")
        return CSRMatrix(self.indptr, self.indices, self.data.astype(dtype), self.shape)

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def scale_values(self, factor: float) -> "CSRMatrix":
        return CSRMatrix(self.indptr, self.indices, self.data * factor, self.shape)

    def map_values(self, func) -> "CSRMatrix":
        """Apply an elementwise function to the stored values."""
        data = np.asarray(func(self.data), dtype=VALUE_DTYPE)
        if data.shape != self.data.shape:
            raise ShapeError("map_values function changed the value count")
        return CSRMatrix(self.indptr, self.indices, data, self.shape)

    def permute(self, perm: np.ndarray) -> "CSRMatrix":
        """Symmetric permutation ``Q^T A Q``.

        ``perm[k]`` is the *old* index of the vertex placed at new position
        ``k`` (the output order produced by the radix sort of Section 4.3).
        """
        perm = np.asarray(perm, dtype=INDEX_DTYPE)
        n = self.n_rows
        require(perm.shape == (n,), f"permutation must have length {n}")
        if self.n_rows != self.n_cols:
            raise ShapeError("permute requires a square matrix")
        new_index = np.empty(n, dtype=INDEX_DTYPE)
        new_index[perm] = np.arange(n, dtype=INDEX_DTYPE)
        coo = self.to_coo()
        from .coo import COOMatrix

        return COOMatrix(
            row=new_index[coo.row], col=new_index[coo.col], val=coo.val, shape=self.shape
        ).to_csr()

    # -- linear algebra ----------------------------------------------------------
    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``A x`` via the plain SpMV kernel."""
        from .spmv import spmv

        return spmv(self, x)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.matvec(x)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CSRMatrix(shape={self.shape}, nnz={self.nnz})"


def matrix_digest(a: CSRMatrix) -> str:
    """Content digest of a CSR matrix (structure *and* weights), hex SHA-256.

    Hashes the contiguous ``indptr``/``indices``/``data`` buffers, each
    preceded by a ``name:dtype:length;`` tag.  Hashing the raw bytes alone
    let two matrices whose concatenated buffers coincide byte-for-byte —
    e.g. a float32 pair re-read as one float64 — share a digest; the tags
    make every array boundary and element width part of the hash.  The row
    count rides in ``indptr``'s length; the column count is not hashed.
    """
    h = hashlib.sha256()
    for name, arr in (("indptr", a.indptr), ("indices", a.indices), ("data", a.data)):
        arr = np.ascontiguousarray(arr)
        h.update(f"{name}:{arr.dtype.name}:{arr.size};".encode())
        h.update(arr.tobytes())
    return h.hexdigest()
