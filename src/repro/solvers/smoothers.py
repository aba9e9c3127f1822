"""Stationary smoothers for the AMG extension.

* :class:`WeightedJacobi` — the default damped point smoother.
* :class:`ColoredGaussSeidel` — multicolor Gauss-Seidel: a Jones-Plassmann
  coloring partitions the vertices into independent sets, so each
  Gauss-Seidel sub-sweep updates one whole color class as a single
  vectorized operation (the standard way to parallelise Gauss-Seidel on a
  GPU, and the natural consumer of the Related-Work coloring).
"""

from __future__ import annotations

import numpy as np

from .._validation import VALUE_DTYPE
from ..core.coloring import color_graph
from ..sparse.csr import CSRMatrix
from .preconditioners import _inverse_diagonal

__all__ = ["ColoredGaussSeidel", "WeightedJacobi"]


class WeightedJacobi:
    """x ← x + ω D⁻¹ (b − A x) with ω = 2/3."""

    def __init__(self, a: CSRMatrix):
        self.a = a
        self._inv_diag = _inverse_diagonal(a, "Jacobi smoothing")

    def smooth(self, x: np.ndarray, b: np.ndarray, *, sweeps: int = 1) -> np.ndarray:
        for _ in range(sweeps):
            x = x + 2.0 / 3.0 * self._inv_diag * (b - self.a.matvec(x))
        return x


class ColoredGaussSeidel:
    """Multicolor Gauss-Seidel sweeps.

    Within one sweep the color classes are visited in order; every class is
    an independent set, so its residual update only reads values written in
    *earlier* classes — exactly sequential Gauss-Seidel restricted to the
    color ordering, fully vectorized per class.
    """

    def __init__(self, a: CSRMatrix):
        self.a = a
        self._inv_diag = _inverse_diagonal(a, "Gauss-Seidel smoothing")
        self.colors = color_graph(a)
        self.n_colors = int(self.colors.max(initial=-1)) + 1
        self._classes = [
            np.flatnonzero(self.colors == c) for c in range(self.n_colors)
        ]

    def smooth(
        self, x: np.ndarray, b: np.ndarray, *, sweeps: int = 1, reverse: bool = False
    ) -> np.ndarray:
        x = np.array(x, dtype=VALUE_DTYPE, copy=True)
        order = self._classes[::-1] if reverse else self._classes
        for _ in range(sweeps):
            for members in order:
                residual = b[members] - self.a.matvec(x)[members]
                x[members] += self._inv_diag[members] * residual
        return x
