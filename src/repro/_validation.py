"""Internal argument-validation helpers.

These are deliberately tiny: they normalise user input to canonical NumPy
arrays once, at API boundaries, so that the vectorized kernels never have to
re-check anything in their hot loops.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import ConfigError, ShapeError

__all__ = [
    "as_index_array",
    "as_value_array",
    "check_finite_entries",
    "check_square",
    "require",
]

INDEX_DTYPE = np.int64
VALUE_DTYPE = np.float64


def require(condition: bool, message: str, exc: type[Exception] = ShapeError) -> None:
    """Raise ``exc(message)`` unless ``condition`` holds."""
    if not condition:
        raise exc(message)


def as_index_array(a, *, name: str = "array") -> np.ndarray:
    """Return ``a`` as a contiguous int64 1-D array."""
    out = np.ascontiguousarray(a, dtype=INDEX_DTYPE)
    require(out.ndim == 1, f"{name} must be one-dimensional, got ndim={out.ndim}")
    return out


def as_value_array(a, *, name: str = "array") -> np.ndarray:
    """Return ``a`` as a contiguous floating 1-D array.

    float32 input stays float32 — the paper benchmarks in single
    precision — and everything else is coerced to float64.
    """
    src = np.asarray(a)
    dtype = np.float32 if src.dtype == np.float32 else VALUE_DTYPE
    out = np.ascontiguousarray(a, dtype=dtype)
    require(out.ndim == 1, f"{name} must be one-dimensional, got ndim={out.ndim}")
    return out


def _is_integral(x) -> bool:
    """A real, non-boolean number with an integer value that fits an int64."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        return False
    if not (isinstance(x, numbers.Integral) or (math.isfinite(x) and float(x).is_integer())):
        return False
    return -(2**63) <= x < 2**63


def _is_real(x) -> bool:
    """A real, non-boolean number (strings and booleans are not weights)."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _is_flag(x) -> bool:
    """A Python or NumPy boolean (``0``, ``1`` and ``"false"`` are not)."""
    return isinstance(x, (bool, np.bool_))


def check_square(shape: tuple[int, int]) -> int:
    """Validate that ``shape`` is square and return its order."""
    require(len(shape) == 2, f"matrix must be two-dimensional, got shape={shape}")
    n_rows, n_cols = shape
    require(n_rows == n_cols, f"matrix must be square, got shape={shape}")
    return int(n_rows)


def check_finite_entries(a) -> None:
    """Refuse a CSR matrix with a non-finite stored entry, diagonal included.

    The :class:`~repro.errors.ConfigError` names the first such entry's row,
    column and value.  It reads every entry once, so it runs where a matrix
    enters the program (the CLI's Matrix Market reads, the daemon's file
    and inline matrices), never inside the engines.
    """
    finite = np.isfinite(a.data)
    if not finite.all():
        k = int(np.argmin(finite))
        row = int(np.searchsorted(a.indptr, k, side="right")) - 1
        raise ConfigError(
            f"matrix entry at row {row}, column {int(a.indices[k])} is "
            f"{a.data[k]}; weights must be finite"
        )
