"""The paper's primary contribution: [0,n]-factors and linear forests.

Layout (paper section in parentheses):

* :mod:`~repro.core.structures` — the :class:`Factor` representation (§3.1).
* :mod:`~repro.core.charge` — MD5-style vertex charging (§3.2, §4.1).
* :mod:`~repro.core.greedy` — sequential greedy [0,n]-factor, Algorithm 1.
* :mod:`~repro.core.factor` — parallel [0,n]-factor, Algorithm 2 (§3.2, §4.1).
* :mod:`~repro.core.coverage` — weight-coverage metrics, Equations 3–5.
* :mod:`~repro.core.scan` — the bidirectional scan engine, Algorithm 3 (§4.2).
* :mod:`~repro.core.frontier` — frontier-compaction policies shared by the
  proposition and scan engines (eager/never/lazy/adaptive; bit-identical).
* :mod:`~repro.core.cycles` — cycle identification and weakest-edge breaking
  (§3.3 step 1).
* :mod:`~repro.core.paths` — path ids and positions (§3.3 step 2).
* :mod:`~repro.core.permutation` — tridiagonalising permutation (§3.3 step 3).
* :mod:`~repro.core.extraction` — coefficient extraction (§3.3 step 4, §4.3).
* :mod:`~repro.core.pipeline` — the end-to-end linear-forest extraction with
  the Figure 6 timing breakdown.
* :mod:`~repro.core.partition` — the 1-D vertex partition every engine
  above takes with a device group, the halo hook that meters its
  cross-shard reads, and device-count resolution (bit-identical to one
  device; see ``docs/SHARDING.md``).
* :mod:`~repro.core.delta` — incremental extraction for dynamic graphs:
  edit batches, invalidation frontier, frontier-local recompute and splice
  (bit-identical to a from-scratch run; see ``docs/INCREMENTAL.md``).
* :mod:`~repro.core.sequential_forest` — the sequential CPU reference used as
  the Figure 5 baseline.
"""

from .boruvka import SpanningForest, boruvka_forest
from .charge import vertex_charges
from .coloring import color_graph, is_valid_coloring
from .coverage import coverage, factor_weight, graph_weight, identity_coverage
from .cycles import break_cycles, detect_cycles
from .delta import (
    DeltaFallbackWarning,
    DeltaResult,
    DeltaStats,
    EditBatch,
    apply_edits,
    apply_edits_to_matrix,
    invalidation_radius,
)
from .extraction import TridiagonalSystem, extract_tridiagonal
from .factor import ParallelFactorConfig, ParallelFactorResult, parallel_factor
from .frontier import (
    AdaptiveCompaction,
    CompactionDecision,
    CompactionPolicy,
    EagerCompaction,
    LazyCompaction,
    NeverCompaction,
    resolve_compaction,
)
from .greedy import greedy_factor
from .partition import VertexPartition, resolve_devices
from .paths import PathInfo, identify_paths, paths_from_scan
from .permutation import forest_permutation, is_tridiagonal_under
from .pipeline import LinearForestResult, extract_linear_forest
from .rcm import band_weight_fraction, bandwidth, rcm_ordering
from .scan import (
    AddOperator,
    BidirectionalScan,
    FusedOperator,
    MinEdgeOperator,
    ScanResult,
)
from .sequential_forest import sequential_linear_forest
from .serialization import (
    load_factor,
    load_forest_ordering,
    save_factor,
    save_forest_ordering,
)
from .structures import Factor

__all__ = [
    "AdaptiveCompaction",
    "AddOperator",
    "BidirectionalScan",
    "CompactionDecision",
    "CompactionPolicy",
    "DeltaFallbackWarning",
    "DeltaResult",
    "DeltaStats",
    "EagerCompaction",
    "EditBatch",
    "Factor",
    "FusedOperator",
    "LazyCompaction",
    "LinearForestResult",
    "MinEdgeOperator",
    "NeverCompaction",
    "ScanResult",
    "ParallelFactorConfig",
    "ParallelFactorResult",
    "PathInfo",
    "SpanningForest",
    "TridiagonalSystem",
    "VertexPartition",
    "apply_edits",
    "apply_edits_to_matrix",
    "band_weight_fraction",
    "bandwidth",
    "boruvka_forest",
    "break_cycles",
    "color_graph",
    "is_valid_coloring",
    "coverage",
    "detect_cycles",
    "extract_linear_forest",
    "extract_tridiagonal",
    "factor_weight",
    "forest_permutation",
    "graph_weight",
    "greedy_factor",
    "identify_paths",
    "identity_coverage",
    "invalidation_radius",
    "is_tridiagonal_under",
    "load_factor",
    "load_forest_ordering",
    "parallel_factor",
    "paths_from_scan",
    "rcm_ordering",
    "resolve_compaction",
    "resolve_devices",
    "save_factor",
    "save_forest_ordering",
    "sequential_linear_forest",
    "vertex_charges",
]
