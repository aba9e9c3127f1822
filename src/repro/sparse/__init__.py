"""Sparse-matrix substrate built from scratch.

The paper stores the graph as an adjacency matrix in CSR format and expresses
its core kernel — the edge proposition of Algorithm 2 — as a *generalized*
sparse matrix-vector product in which the multiply and the row reduction are
arbitrary functors over arbitrary (possibly structured) types.  This
subpackage provides:

* :class:`~repro.sparse.coo.COOMatrix`, :class:`~repro.sparse.csr.CSRMatrix` —
  minimal, validated sparse formats (no scipy dependency in the hot path),
  and :func:`~repro.sparse.csr.matrix_digest`, the dtype-tagged content
  digest that keys the serve cache and the tuning fingerprints.
* :mod:`~repro.sparse.build` — graph preparation: ``A' = |A| - diag(|A|)``,
  symmetrization ``A' + A'^T``, edge-list and dense constructors.
* :mod:`~repro.sparse.spmv` — the plain CSR SpMV used as the performance
  roofline in Figure 3.
* :mod:`~repro.sparse.semiring` — the generalized SpMV (segmented reduction
  over CSR rows with user ⊗ and ⊕, distinct input/output/accumulator types).
* :mod:`~repro.sparse.topn` — the top-``n`` row accumulator of Table 1, the
  ⊕ operator that drives the parallel [0,n]-factor computation.
* :mod:`~repro.sparse.io` — Matrix Market I/O.
"""

from .block_diag import block_diag, block_offsets, split_ranges
from .build import (
    PreparedGraph,
    absolute_offdiag,
    add,
    from_dense,
    from_edges,
    prepare_graph,
    symmetrize,
)
from .coo import COOMatrix
from .csr import CSRMatrix, matrix_digest
from .io import read_matrix_market, write_matrix_market
from .semiring import (
    MAX_TIMES,
    MIN_PLUS,
    OR_AND,
    PLUS_TIMES,
    Semiring,
    generalized_spmv,
    segment_reduce,
    segment_reduce_generic,
)
from .proposition_semiring import proposition_spmv, top_n_merge
from .spgemm import spgemm
from .spmv import spmv
from .topn import top_n_per_row, validate_proposition_weights
from .transversal import Transversal, maximum_transversal, transversal_scaling

__all__ = [
    "COOMatrix",
    "CSRMatrix",
    "MAX_TIMES",
    "MIN_PLUS",
    "OR_AND",
    "PLUS_TIMES",
    "PreparedGraph",
    "Semiring",
    "Transversal",
    "absolute_offdiag",
    "add",
    "block_diag",
    "block_offsets",
    "from_dense",
    "from_edges",
    "generalized_spmv",
    "matrix_digest",
    "maximum_transversal",
    "prepare_graph",
    "proposition_spmv",
    "read_matrix_market",
    "segment_reduce",
    "segment_reduce_generic",
    "spgemm",
    "split_ranges",
    "spmv",
    "symmetrize",
    "top_n_merge",
    "top_n_per_row",
    "validate_proposition_weights",
    "transversal_scaling",
    "write_matrix_market",
]
