"""Cycle identification and weakest-edge breaking (Section 3.3, step 1).

A [0,2]-factor decomposes into disjoint paths and cycles.  To turn it into a
linear forest, every cycle is broken by removing its *weakest* edge, keeping
the factor weight ω_π as large as possible.  Both the detection (a lane that
is still positive after ⌈log₂N⌉ scan steps never reached a path end) and the
per-cycle minimum (the :class:`~repro.core.scan.MinEdgeOperator` payload) run
on the bidirectional scan.

Both entry points accept a precomputed ``scan_result`` so a caller that has
already run a scan of the *same factor* — e.g. a
:class:`~repro.core.scan.FusedOperator` pass that carried the weakest-edge
payload alongside another one — does not pay for a second butterfly.
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
from .scan import BidirectionalScan, MinEdgeOperator, NullOperator, ScanResult
from .structures import Factor

__all__ = ["BrokenCycles", "break_cycles", "detect_cycles"]


def detect_cycles(factor: Factor, *, scan_result: ScanResult | None = None) -> np.ndarray:
    """Boolean mask of vertices that lie on a cycle of the [0,2]-factor.

    ``scan_result`` may be the outcome of *any* completed bidirectional scan
    of ``factor`` (the cycle mask only depends on the lane pointers, not on
    the payload); when given, no scan is run.
    """
    if scan_result is not None:
        return scan_result.cycle_mask
    return BidirectionalScan(factor).run(NullOperator()).cycle_mask


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

    ``graph`` supplies the edge weights (the prepared adjacency A').  All
    vertices of a cycle agree on its weakest edge because edges are ordered
    by the unique triple (|weight|, min id, max id); each cycle therefore
    loses exactly one edge, and the result is a linear forest.

    ``scan_result`` skips the scan: it must be a completed scan of ``factor``
    whose payload carries the :class:`~repro.core.scan.MinEdgeOperator`
    fields ``w``/``u``/``v`` (e.g. from a fused pass); ``graph`` is then
    unused and may be omitted.  ``device``/``partition`` place the scan as
    in :class:`~repro.core.scan.BidirectionalScan`.
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
            missing = {"w", "u", "v"} - set(scan_result.payload)
            if missing:
                raise ScanError(
                    f"scan_result payload lacks the weakest-edge fields {sorted(missing)}; "
                    "run (or fuse) MinEdgeOperator"
                )
            result = scan_result
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
        # flat lane-major views: entry (x, lane) sits at 2x + lane
        w, u, v = (result.payload[name].reshape(-1) for name in ("w", "u", "v"))
        # per cycle vertex: lexicographic min over the two lanes
        lane0 = 2 * np.flatnonzero(cycle_mask)
        lane1 = lane0 + 1
        lane1_smaller = (w[lane1] < w[lane0]) | (
            (w[lane1] == w[lane0])
            & ((u[lane1] < u[lane0]) | ((u[lane1] == u[lane0]) & (v[lane1] < v[lane0])))
        )
        pick = lane0 + lane1_smaller
        if bool(np.isinf(w[pick]).any()):
            raise ScanError("cycle vertex without a resolved weakest edge")
        # one key per edge, min endpoint major: its 1-D unique sorts the
        # edges exactly like a row-wise unique of the (u, v) pairs
        n_vertices = factor.n_vertices
        keys = np.unique(u[pick] * n_vertices + v[pick])
        removed_u, removed_v = np.divmod(keys, n_vertices)
        forest = factor.remove_edges(removed_u, removed_v)
        if span is not None:
            span.attributes["n_cycles"] = int(removed_u.size)
        return BrokenCycles(
            forest=forest, removed_u=removed_u, removed_v=removed_v, cycle_mask=cycle_mask
        )
