"""repro — Highly Parallel Linear Forest Extraction from a Weighted Graph.

A from-scratch reproduction of Klein & Strzodka (ICPP 2022): parallel
[0,n]-factor computation via generalized sparse matrix-vector products, a
bidirectional scan that works without random-access iterators, linear-forest
extraction, and the algebraically constructed tridiagonal preconditioners
built on top of them.  The paper's CUDA kernels are realised as data-parallel
NumPy kernels on a simulated device (see :mod:`repro.device`).

Quickstart::

    import numpy as np
    from repro import extract_linear_forest
    from repro.graphs import aniso2

    a = aniso2(64)                       # the paper's ANISO2 model problem
    result = extract_linear_forest(a)    # [0,2]-factor -> linear forest
    print(result.coverage)               # fraction of |A|'s weight captured
    print(result.paths.n_paths)          # number of disjoint paths
    tri = result.tridiagonal             # preconditioner-ready bands

Subpackages
-----------
``repro.core``
    [0,n]-factors (Algorithms 1 and 2), the bidirectional scan (Algorithm 3),
    cycle breaking, path identification, permutation, extraction.
``repro.sparse``
    CSR/COO formats, plain and generalized SpMV, the top-n accumulator.
``repro.sort``
    Split radix sort and (path id, position) key packing.
``repro.device``
    Simulated data-parallel device: launches, ping-pong buffers, roofline
    cost model.
``repro.solvers``
    BiCGStab, tridiagonal/block-tridiagonal solves, the four preconditioners
    of the paper's Section 6.
``repro.graphs``
    ANISO stencils, synthetic SuiteSparse analogues, random test graphs.
``repro.analysis``
    Table/figure rendering for the benchmark harnesses.
``repro.obs``
    Tracing and metrics: nested spans, Chrome-trace/JSONL export, the
    metrics registry, and machine-readable run reports.
``repro.tune``
    Per-matrix compaction-policy autotuning: decision-log replay, cost-model
    fitting, the versioned ``tuning.json`` cache behind ``--compaction auto``.
``repro.serve``
    The ``repro serve`` daemon: a content-keyed result cache over a
    line-delimited JSON protocol, with batch coalescing of cold misses.
``repro.delta``
    Incremental extraction for dynamic graphs: apply an edit batch to a
    previous result, recomputing only the change-invalidated frontier —
    bit-identical to a from-scratch run on the edited matrix.
"""

from . import analysis, apps, batch, core, delta, device, graphs, obs, serve, solvers, sort, sparse, tune
from .batch import BatchResult, extract_linear_forest_batch
from .core import (
    DeltaResult,
    DeltaStats,
    EditBatch,
    Factor,
    apply_edits,
    LinearForestResult,
    ParallelFactorConfig,
    ParallelFactorResult,
    PathInfo,
    TridiagonalSystem,
    break_cycles,
    coverage,
    extract_linear_forest,
    forest_permutation,
    greedy_factor,
    identify_paths,
    identity_coverage,
    parallel_factor,
)
from .errors import (
    ConvergenceError,
    FactorError,
    FormatError,
    PathError,
    ReproError,
    ScanError,
    ShapeError,
    SolverError,
)
from .sparse import CSRMatrix, from_dense, from_edges, prepare_graph

__version__ = "1.0.0"

__all__ = [
    "BatchResult",
    "CSRMatrix",
    "ConvergenceError",
    "DeltaResult",
    "DeltaStats",
    "EditBatch",
    "Factor",
    "FactorError",
    "FormatError",
    "LinearForestResult",
    "ParallelFactorConfig",
    "ParallelFactorResult",
    "PathError",
    "PathInfo",
    "ReproError",
    "ScanError",
    "ShapeError",
    "SolverError",
    "TridiagonalSystem",
    "analysis",
    "apply_edits",
    "apps",
    "batch",
    "break_cycles",
    "core",
    "coverage",
    "delta",
    "device",
    "extract_linear_forest",
    "extract_linear_forest_batch",
    "forest_permutation",
    "from_dense",
    "from_edges",
    "graphs",
    "greedy_factor",
    "identify_paths",
    "identity_coverage",
    "obs",
    "parallel_factor",
    "prepare_graph",
    "serve",
    "solvers",
    "sort",
    "sparse",
    "tune",
    "__version__",
]
