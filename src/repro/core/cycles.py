"""Cycle identification and weakest-edge breaking (Section 3.3, step 1).

A [0,2]-factor decomposes into disjoint paths and cycles.  To turn it into a
linear forest, every cycle is broken by removing its *weakest* edge, keeping
the factor weight ω_π as large as possible.  The detection runs on the
bidirectional scan: a lane that is still positive after ⌈log₂N⌉ scan steps
never reached a path end.  The per-cycle minimum comes one of two ways:

* the pipeline's pass, :func:`labelled_pass`, carries each lane's largest
  vertex id (:class:`~repro.core.scan.MaxVertexOperator`), so a cycle
  vertex's two lanes together name its cycle; one segmented minimum over
  the cycle edges alone (:func:`weakest_edges`, a host step) then finds
  every cycle's weakest edge, and an acyclic factor reads no weight at all;
* the paper's form carries the weakest edge itself through the scan (the
  :class:`~repro.core.scan.MinEdgeOperator` payload).

Both order edges by the triple (|weight|, min id, max id), an edge weighing
the smaller |weight| of its two directions, and break the same edges.  Both
entry points accept a precomputed ``scan_result`` so a caller that has
already run a scan of the *same factor* — e.g. a
:class:`~repro.core.scan.FusedOperator` pass that carried the position
accumulator as well — does not pay for a second butterfly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import INDEX_DTYPE
from ..device.device import Device, DeviceGroup
from ..errors import ScanError
from ..obs import trace_span
from ..sparse.csr import CSRMatrix
from .partition import VertexPartition
from .scan import (
    AddOperator,
    BidirectionalScan,
    FusedOperator,
    MaxVertexOperator,
    MinEdgeOperator,
    NullOperator,
    ScanResult,
    edge_weights,
)
from .structures import Factor

__all__ = ["BrokenCycles", "break_cycles", "detect_cycles", "labelled_pass", "weakest_edges"]


def detect_cycles(factor: Factor, *, scan_result: ScanResult | None = None) -> np.ndarray:
    """Boolean mask of vertices that lie on a cycle of the [0,2]-factor.

    ``scan_result`` may be the outcome of *any* completed bidirectional scan
    of ``factor`` (the cycle mask only depends on the lane pointers, not on
    the payload); when given, no scan is run.
    """
    if scan_result is not None:
        return scan_result.cycle_mask
    return BidirectionalScan(factor).run(NullOperator()).cycle_mask


def labelled_pass() -> FusedOperator:
    """The pipeline's one butterfly pass over the raw factor.

    Each lane carries its segment's largest vertex id ``m``, the cycle
    label that :func:`break_cycles` reads, fused with the position
    accumulator ``r`` that :func:`~repro.core.paths.identify_paths` reuses.
    One int64 per lane each, so a far tuple meters 48 bytes.
    """
    return FusedOperator((MaxVertexOperator(), AddOperator()))


def weakest_edges(
    graph: CSRMatrix, label: np.ndarray, here: np.ndarray, there: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The weakest edge of each label among the edges ``here[i]``–``there[i]``.

    An edge weighs the smaller |weight| of its two directions in ``graph``
    (:func:`~repro.core.scan.edge_weights`, as in
    :class:`~repro.core.scan.MinEdgeOperator`), and edges order by (label,
    |weight|, min endpoint, max endpoint).  Returns, one per distinct label
    in ascending label order, the index of the first edge in that order and
    its weight.  A NaN weight has no order and is
    refused.  A host step over the given edges alone: two weight lookups and
    one lexsort.
    """
    w = edge_weights(graph, here, there)
    nan = np.flatnonzero(np.isnan(w))
    if nan.size:
        raise ScanError(
            f"cycle edge ({here[nan[0]]}, {there[nan[0]]}) has a NaN weight, "
            "which has no order"
        )
    order = np.lexsort((np.maximum(here, there), np.minimum(here, there), w, label))
    first = order[np.flatnonzero(np.diff(label[order], prepend=-1))]
    return first, w[first]


@dataclass(frozen=True)
class BrokenCycles:
    """Result of :func:`break_cycles`."""

    forest: Factor
    removed_u: np.ndarray
    removed_v: np.ndarray
    cycle_mask: np.ndarray

    @property
    def n_cycles(self) -> int:
        return int(self.removed_u.size)


def _scanned_minima(result: ScanResult, cycles: np.ndarray):
    """Each cycle vertex's weakest edge from a weakest-edge payload: the
    lexicographic minimum over its two lanes."""
    # flat lane-major views: entry (x, lane) sits at 2x + lane
    w, u, v = (result.payload[name].reshape(-1) for name in ("w", "u", "v"))
    lane0 = 2 * cycles
    lane1 = lane0 + 1
    lane1_smaller = (w[lane1] < w[lane0]) | (
        (w[lane1] == w[lane0])
        & ((u[lane1] < u[lane0]) | ((u[lane1] == u[lane0]) & (v[lane1] < v[lane0])))
    )
    pick = lane0 + lane1_smaller
    return u[pick], v[pick], w[pick]


def _labelled_minima(factor: Factor, graph: CSRMatrix, result: ScanResult, cycles: np.ndarray):
    """Each cycle's weakest edge from the cycle labels of :func:`labelled_pass`."""
    m = result.payload["m"]
    # a lane stalls at half of a cycle whose length is a power of two, so
    # only both lanes together cover the cycle
    label = np.maximum(m[cycles, 0], m[cycles, 1])
    # every cycle edge once, from its smaller endpoint
    there = factor.neighbors[cycles]
    mine = cycles[:, None] < there
    here = np.broadcast_to(cycles[:, None], there.shape)[mine]
    there = there[mine]
    pick, w = weakest_edges(
        graph, np.broadcast_to(label[:, None], mine.shape)[mine], here, there
    )
    return here[pick], there[pick], w


def break_cycles(
    factor: Factor,
    graph: CSRMatrix | None = None,
    *,
    device: Device | DeviceGroup | None = None,
    scan_result: ScanResult | None = None,
    compaction=None,
    partition: VertexPartition | None = None,
) -> BrokenCycles:
    """Remove the weakest edge of every cycle of a [0,2]-factor.

    ``graph`` supplies the edge weights (the prepared adjacency A').  Edges
    are ordered by the unique triple (|weight|, min id, max id), an edge
    weighing the smaller |weight| of its two directions, so each cycle
    loses exactly one edge and the result is a linear forest, on an
    asymmetric graph too.

    ``scan_result`` skips the scan: it must be a completed scan of
    ``factor``.  When its payload carries the cycle labels ``m`` of
    :func:`labelled_pass`, one segmented minimum over the cycle edges
    (:func:`weakest_edges`) breaks the cycles, with their weights read from
    ``graph``, which is then required.  When it carries the
    :class:`~repro.core.scan.MinEdgeOperator` fields ``w``/``u``/``v``
    instead, the scan already holds every weakest edge and ``graph`` may be
    omitted.  Without ``scan_result`` a MinEdgeOperator scan runs, placed
    by ``device``/``partition`` as in
    :class:`~repro.core.scan.BidirectionalScan`.
    """
    with trace_span(
        "break-cycles",
        category="stage",
        n_vertices=factor.n_vertices,
        reused_scan=scan_result is not None,
    ) as span:
        if scan_result is None:
            if graph is None:
                raise ScanError("break_cycles requires the weighted graph (or a scan_result)")
            scan = BidirectionalScan(
                factor, device=device, compaction=compaction, partition=partition
            )
            result = scan.run(MinEdgeOperator(), graph)
        else:
            result = scan_result
        missing = {"w", "u", "v"} - set(result.payload)
        if missing and "m" not in result.payload:
            raise ScanError(
                f"scan_result payload lacks the weakest-edge fields {sorted(missing)} "
                "and the cycle labels 'm'; run (or fuse) MinEdgeOperator or "
                "MaxVertexOperator"
            )
        if missing and graph is None:
            raise ScanError(
                "a scan_result with cycle labels needs the weighted graph to weigh "
                "the cycle edges"
            )
        cycle_mask = result.cycle_mask
        if not bool(cycle_mask.any()):
            if span is not None:
                span.attributes["n_cycles"] = 0
            return BrokenCycles(
                forest=factor,
                removed_u=np.empty(0, dtype=INDEX_DTYPE),
                removed_v=np.empty(0, dtype=INDEX_DTYPE),
                cycle_mask=cycle_mask,
            )
        cycles = np.flatnonzero(cycle_mask)
        if missing:
            u, v, w = _labelled_minima(factor, graph, result, cycles)
        else:
            u, v, w = _scanned_minima(result, cycles)
        if bool(np.isinf(w).any()):
            raise ScanError("cycle vertex without a resolved weakest edge")
        # one key per edge, min endpoint major: its 1-D unique sorts the
        # edges exactly like a row-wise unique of the (u, v) pairs
        n_vertices = factor.n_vertices
        keys = np.unique(u * n_vertices + v)
        removed_u, removed_v = np.divmod(keys, n_vertices)
        forest = factor.remove_edges(removed_u, removed_v)
        if span is not None:
            span.attributes["n_cycles"] = int(removed_u.size)
        return BrokenCycles(
            forest=forest, removed_u=removed_u, removed_v=removed_v, cycle_mask=cycle_mask
        )
