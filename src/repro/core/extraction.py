"""Coefficient extraction (Section 3.3 step 4 / Section 4.3).

With the permutation fixed, the tridiagonal system is filled from the
*original* input matrix A: the matrix is walked in COO form, one simulated
thread per coefficient; each thread checks whether its edge is part of the
linear forest and scatters the value through the permutation into one of the
three band buffers of length N.

On the host the COO view is never built: CSR's expanded row array
(``nnz_rows``), ``indices`` and ``data`` *are* the COO triple, in the same
order.  The forest test runs one partner-slot column at a time
(:func:`~repro.core.structures.is_partner`), so no ``(nnz, n)`` array is
gathered.  The pipeline then reads Eq. 4's numerator from the bands
(:func:`~repro.core.coverage.band_coverage`); the public
:func:`~repro.core.coverage.coverage` makes a pass of its own with the same
helper (:func:`~repro.core.structures.slot_hits`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import VALUE_DTYPE, as_value_array, check_square
from ..device.device import Device, DeviceGroup
from ..errors import ShapeError
from ..obs import trace_span
from ..sparse.csr import CSRMatrix
from .partition import Placement, VertexPartition, group_attrs
from .permutation import inverse_permutation
from .structures import Factor, is_partner

__all__ = ["TridiagonalSystem", "extract_tridiagonal"]


@dataclass(frozen=True)
class TridiagonalSystem:
    """A tridiagonal matrix stored as three band buffers of length N.

    ``dl[i]`` couples row ``i`` with ``i-1`` (``dl[0]`` unused), ``d[i]`` is
    the diagonal, ``du[i]`` couples row ``i`` with ``i+1`` (``du[N-1]``
    unused).
    """

    dl: np.ndarray
    d: np.ndarray
    du: np.ndarray

    def __post_init__(self) -> None:
        # float32 is preserved the same way CSRMatrix does it: only when
        # every band comes in as float32 does the system stay single
        # precision; any other dtype mix coerces to VALUE_DTYPE.
        all_f32 = all(
            np.asarray(b).dtype == np.float32 for b in (self.dl, self.d, self.du)
        )
        value_dtype = np.float32 if all_f32 else VALUE_DTYPE
        dl = np.ascontiguousarray(self.dl, dtype=value_dtype)
        d = np.ascontiguousarray(self.d, dtype=value_dtype)
        du = np.ascontiguousarray(self.du, dtype=value_dtype)
        if not (dl.shape == d.shape == du.shape) or d.ndim != 1:
            raise ShapeError("dl, d, du must be equal-length 1-D arrays")
        object.__setattr__(self, "dl", dl)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "du", du)

    @property
    def value_dtype(self) -> np.dtype:
        """The band precision (float32 or float64)."""
        return self.d.dtype

    @property
    def n(self) -> int:
        return int(self.d.size)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = as_value_array(x, name="x")
        if x.shape != (self.n,):
            raise ShapeError(f"x must have shape ({self.n},)")
        y = self.d * x
        y[1:] += self.dl[1:] * x[:-1]
        y[:-1] += self.du[:-1] * x[1:]
        return y

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Direct solve via vectorized cyclic reduction."""
        from ..solvers.tridiag import pcr_solve

        return pcr_solve(self.dl, self.d, self.du, b)

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.n, self.n), dtype=self.d.dtype)
        idx = np.arange(self.n)
        dense[idx, idx] = self.d
        dense[idx[1:], idx[1:] - 1] = self.dl[1:]
        dense[idx[:-1], idx[:-1] + 1] = self.du[:-1]
        return dense


def extract_tridiagonal(
    a: CSRMatrix,
    forest: Factor,
    perm: np.ndarray,
    *,
    device: Device | DeviceGroup | None = None,
    partition: VertexPartition | None = None,
) -> TridiagonalSystem:
    """Scatter the linear-forest coefficients of ``A`` into band storage.

    Only coefficients whose edge is a confirmed linear-forest edge (plus the
    main diagonal of ``A``) enter the system — an incidental coupling between
    the last vertex of one path and the first of the next is *not* included,
    exactly as in the paper's implementation.

    A :class:`~repro.device.device.DeviceGroup` as ``device`` splits the
    scatter by matrix row over ``partition`` (default: uniform over the
    group); a value whose permuted position lands in another shard's band
    range ships over the interconnect (``halo.bands``).
    """
    n = check_square(a.shape)
    placement = Placement(device, n, partition)
    new_index = inverse_permutation(perm)
    # the bands inherit the input precision: a float32 matrix yields a
    # float32 system (the paper's single-precision benchmark path)
    band_dtype = a.data.dtype
    dl = np.zeros(n, dtype=band_dtype)
    du = np.zeros(n, dtype=band_dtype)
    d = np.zeros(n, dtype=band_dtype)
    # the COO triple in CSR order, so a shard's rows are the slice at indptr
    coo_rows, coo_cols, coo_vals = a.nnz_rows, a.indices, a.data
    slots = forest.slots
    value_msg_bytes = int(np.dtype(band_dtype).itemsize) + 8  # value + position
    with trace_span(
        "extract-tridiagonal",
        category="stage",
        n=n,
        nnz=a.nnz,
        dtype=str(band_dtype),
        **group_attrs(device),
    ):
        for s, dev, lo, hi in placement.shards:
            e0, e1 = int(a.indptr[lo]), int(a.indptr[hi])
            rows = coo_rows[e0:e1]
            cols = coo_cols[e0:e1]
            vals = coo_vals[e0:e1]
            with dev.launch(
                "extract-coefficients",
                reads=(rows, cols, vals),
                writes=(dl[lo:hi], du[lo:hi]),
            ):
                on_diag = np.flatnonzero(rows == cols)
                p_diag = new_index[rows[on_diag]]
                d[p_diag] = vals[on_diag]
                # a forest edge is never a diagonal entry (and one would land
                # on neither band), so the test needs no off-diagonal split
                in_forest = np.flatnonzero(is_partner(slots, rows, cols))
                r2, c2, v2 = rows[in_forest], cols[in_forest], vals[in_forest]
                p_row = new_index[r2]
                p_col = new_index[c2]
                sub = np.flatnonzero(p_col == p_row - 1)
                sup = np.flatnonzero(p_col == p_row + 1)
                dl[p_row[sub]] = v2[sub]
                du[p_row[sup]] = v2[sup]
                placement.halo(
                    s,
                    lambda: np.concatenate([p_diag, p_row[sub], p_row[sup]]),
                    value_msg_bytes,
                    "halo.bands",
                    push=True,
                )
    return TridiagonalSystem(dl=dl, d=d, du=du)
