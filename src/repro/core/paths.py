"""Path ids and positions (Section 3.3, step 2 — Algorithm 3).

For an *acyclic* [0,2]-factor (a linear forest), the bidirectional scan with
the addition payload determines, for every vertex, both path ends and the
distance to each.  The paper's convention: *"We define the path ID as the
minimum ID of the vertices at the path ends, and this defines also the
orientation: the vertex at the path end with the smaller ID is at position 1,
its neighbor at position 2, etc."*
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .._validation import INDEX_DTYPE
from ..device.device import Device, DeviceGroup
from ..errors import ScanError
from .partition import VertexPartition
from .scan import AddOperator, BidirectionalScan, ScanResult, decode_end
from .structures import Factor

__all__ = ["PathInfo", "identify_paths", "paths_from_scan"]


@dataclass(frozen=True)
class PathInfo:
    """Per-vertex path id and 1-based position within the path."""

    path_id: np.ndarray
    position: np.ndarray

    @property
    def n_vertices(self) -> int:
        return int(self.path_id.size)

    @cached_property
    def path_ids(self) -> np.ndarray:
        """Sorted unique path ids (each is the minimum end id of its path)."""
        return np.unique(self.path_id)

    @property
    def n_paths(self) -> int:
        return int(self.path_ids.size)

    def path_sizes(self) -> np.ndarray:
        """Number of vertices of each path, aligned with :attr:`path_ids`."""
        return np.unique(self.path_id, return_counts=True)[1]

    def vertices_of(self, path_id: int) -> np.ndarray:
        """Vertices of one path, ordered by position."""
        members = np.flatnonzero(self.path_id == path_id)
        return members[np.argsort(self.position[members], kind="stable")]


def paths_from_scan(result: ScanResult) -> PathInfo:
    """Algorithm 3's epilogue: path ids and positions from a finished scan.

    ``result`` must be a completed scan of a *linear forest* whose payload
    carries the :class:`~repro.core.scan.AddOperator` accumulator ``r`` —
    either a solo position scan or a fused pass that included one.  Raises
    :class:`~repro.errors.ScanError` on cycles or a missing payload.
    """
    if "r" not in result.payload:
        raise ScanError(
            "scan payload lacks the position accumulator 'r'; run (or fuse) AddOperator"
        )
    if bool(result.cycle_mask.any()):
        n_bad = int(result.cycle_mask.sum())
        raise ScanError(
            f"{n_bad} vertices lie on cycles; identify_paths requires a linear forest"
        )
    ends = decode_end(result.q)  # (N, 2) end vertex ids per lane
    r = result.payload["r"]
    # Alg. 3 lines 30-32: choose the lane pointing at the smaller end id.
    lane = np.argmin(ends, axis=1)
    rows = np.arange(ends.shape[0], dtype=INDEX_DTYPE)
    return PathInfo(path_id=ends[rows, lane], position=r[rows, lane])


def identify_paths(
    forest: Factor,
    *,
    device: Device | DeviceGroup | None = None,
    compaction=None,
    partition: VertexPartition | None = None,
    scan_result: ScanResult | None = None,
) -> PathInfo:
    """Run the position scan on a linear forest.

    ``compaction`` selects the scan's frontier-compaction policy (see
    :mod:`repro.core.frontier`); ``device``/``partition`` place it as in
    :class:`~repro.core.scan.BidirectionalScan`.  Raises
    :class:`~repro.errors.ScanError` when the factor still contains a
    cycle — run :func:`repro.core.cycles.break_cycles` first.

    ``scan_result`` reuses a finished scan of the factor that ``forest`` was
    broken from, whose payload carries the
    :class:`~repro.core.scan.AddOperator` accumulator ``r`` (e.g. the fused
    pass that :func:`~repro.core.cycles.break_cycles` read).  Vertices off
    its ``cycle_mask`` keep their lanes from it, and only the broken cycles'
    lanes jump (:meth:`~repro.core.scan.BidirectionalScan.run_from`).
    Cycle breaking removes one edge per cycle and leaves every other
    component as it was, so the result equals the full position scan of
    ``forest`` bit for bit.
    """
    if scan_result is not None:
        if scan_result.q.shape[0] != forest.n_vertices:
            raise ScanError(
                f"scan_result covers {scan_result.q.shape[0]} vertices, "
                f"the forest has {forest.n_vertices}"
            )
        cycles = np.flatnonzero(scan_result.cycle_mask)
        if cycles.size == 0:
            # no cycle was broken: the scan already holds every position
            return paths_from_scan(scan_result)
    scan = BidirectionalScan(
        forest, device=device, compaction=compaction, partition=partition
    )
    if scan_result is None:
        return paths_from_scan(scan.run(AddOperator()))
    return paths_from_scan(scan.run_from(AddOperator(), scan_result, cycles))
