"""Roofline cost model for the simulated device.

The paper measures kernel runtimes and DRAM throughput with Nsight Compute on
an RTX 2080 Ti (theoretical bandwidth 616 GB/s).  Without that hardware we
reproduce the *performance figures* with a bandwidth roofline over the exact
global-memory traffic of each kernel:

* :func:`proposition_traffic` implements Table 2 of the paper — the buffers
  read and written by the edge-proposition kernel of Algorithm 2, for the
  first (``k = 0``) and subsequent (``k > 0``) iterations.
* :func:`spmv_traffic` is the corresponding traffic of a plain CSR SpMV
  ``d = Ax + d`` (the roofline the paper compares against in Figure 3).
* :func:`scan_traffic` is the per-launch traffic of the bidirectional scan
  (Section 4.2) for the cycle-identification and path-identification variants.

``modeled_seconds = bytes / (bandwidth * efficiency)`` — the efficiency factor
captures that irregular kernels do not reach peak DRAM bandwidth.  The
benchmarks report both the modeled numbers and real wall-clock times of the
vectorized kernels; only the modeled numbers are hardware-calibrated.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "CompactionCost",
    "CostModel",
    "NVLINK_BANDWIDTH_GBS",
    "PropositionTraffic",
    "RTX_2080_TI_BANDWIDTH_GBS",
    "compaction_cost",
    "proposition_traffic",
    "scan_traffic",
    "spmv_traffic",
]

#: Theoretical DRAM bandwidth of the paper's GPU, in GB/s.
RTX_2080_TI_BANDWIDTH_GBS = 616.0

#: Per-direction bandwidth of one third-generation NVLink *pair*, in GB/s —
#: the default link speed of the sharded pipeline's interconnect.  DRAM is
#: an order of magnitude faster, which is exactly why the sharded engine
#: keeps halo bytes sublinear in device traffic.
NVLINK_BANDWIDTH_GBS = 50.0

#: Bytes per value (the paper benchmarks in single precision).
VALUE_BYTES = 4
#: Bytes per index (32-bit indices on the GPU).
INDEX_BYTES = 4
#: Bytes per charge flag.
BOOL_BYTES = 1


@dataclass(frozen=True)
class PropositionTraffic:
    """Traffic of one edge-proposition launch, itemised as in Table 2."""

    csr_values: int
    csr_col_indices: int
    csr_row_ptrs: int
    vertex_charges: int
    confirmed_edges: int
    proposed_edges: int
    proposed_edge_weights: int

    @property
    def bytes_read(self) -> int:
        return (
            self.csr_values
            + self.csr_col_indices
            + self.csr_row_ptrs
            + self.vertex_charges
            + self.confirmed_edges
        )

    @property
    def bytes_written(self) -> int:
        return self.proposed_edges + self.proposed_edge_weights

    @property
    def bytes_total(self) -> int:
        return self.bytes_read + self.bytes_written


def proposition_traffic(
    n: int,
    n_vertices: int,
    nnz: int,
    *,
    k: int = 1,
    charging: bool = True,
) -> PropositionTraffic:
    """Global-memory traffic of the edge-proposition kernel (Table 2).

    Parameters mirror the table: for ``k = 0`` there is no confirmed-edges
    vector to read; edge weights are only written when ``n == 2`` in the
    paper's implementation (they feed the cycle-breaking scan), but we always
    account them when ``n == 2`` and never otherwise, exactly as described in
    Section 4.1.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return PropositionTraffic(
        csr_values=nnz * VALUE_BYTES,
        csr_col_indices=nnz * INDEX_BYTES,
        csr_row_ptrs=(n_vertices + 1) * INDEX_BYTES,
        vertex_charges=n_vertices * BOOL_BYTES if charging else 0,
        confirmed_edges=n * n_vertices * INDEX_BYTES if k > 0 else 0,
        proposed_edges=n * n_vertices * INDEX_BYTES,
        proposed_edge_weights=n * n_vertices * VALUE_BYTES if n == 2 else 0,
    )


def spmv_traffic(n_vertices: int, nnz: int) -> int:
    """Bytes moved by a plain CSR SpMV ``d = Ax + d``.

    Reads: CSR values, column indices, row pointers, the input vector ``x``
    (counted once — perfect caching assumption) and ``d``; writes ``d``.
    """
    reads = (
        nnz * VALUE_BYTES
        + nnz * INDEX_BYTES
        + (n_vertices + 1) * INDEX_BYTES
        + n_vertices * VALUE_BYTES  # x
        + n_vertices * VALUE_BYTES  # d (in)
    )
    writes = n_vertices * VALUE_BYTES  # d (out)
    return reads + writes


def scan_traffic(n_vertices: int, *, variant: str = "paths") -> int:
    """Bytes moved by one bidirectional-scan launch (Section 4.2).

    ``variant="paths"`` reads/writes the stride-q neighbours and the path
    positions (two lanes each); ``variant="cycles"`` additionally carries the
    weakest-edge weight and the two incident vertex ids per lane.
    """
    lanes = 2
    if variant == "paths":
        per_vertex = lanes * (INDEX_BYTES + INDEX_BYTES)  # q and r
    elif variant == "cycles":
        per_vertex = lanes * (INDEX_BYTES + VALUE_BYTES + 2 * INDEX_BYTES)
    else:
        raise ValueError(f"unknown scan variant {variant!r}")
    # Ping-pong: read the back buffer of self + gather of the stride-q
    # neighbour's tuple (counted once), write the front buffer.
    reads = 2 * n_vertices * per_vertex
    writes = n_vertices * per_vertex
    return reads + writes


@dataclass(frozen=True)
class CompactionCost:
    """Modeled traffic of compacting a frontier now vs. carrying its dead lanes.

    ``gather_bytes`` is the one-off cost of a stream compaction: every element
    of the current buffer is read once and every surviving element is written
    once.  ``dead_lane_bytes`` is the recurring cost of *not* compacting: each
    dead element is streamed (and skipped in-kernel) once per remaining round.
    The adaptive frontier policy (:mod:`repro.core.frontier`) compacts exactly
    when :attr:`compaction_saves`.
    """

    gather_bytes: int
    dead_lane_bytes: int

    @property
    def compaction_saves(self) -> bool:
        """True iff the projected dead-lane traffic exceeds the gather cost."""
        return self.dead_lane_bytes > self.gather_bytes

    @property
    def saved_bytes(self) -> int:
        """Projected net saving of compacting now (negative: compaction loses)."""
        return self.dead_lane_bytes - self.gather_bytes


def compaction_cost(
    *,
    live: int,
    dead: int,
    gather_element_bytes: int,
    dead_element_bytes: int,
    rounds_remaining: int,
) -> CompactionCost:
    """Traffic comparison behind a lazy/adaptive compaction decision.

    ``gather_element_bytes`` is the size of one buffer element as moved by the
    compaction gather (e.g. the ``(row, col, value)`` triple of the
    proposition frontier); ``dead_element_bytes`` is what one retained dead
    element costs each round the buffer stays uncompacted (the id/flag reads a
    kernel performs before skipping the lane).  ``rounds_remaining`` bounds the
    projection — dead lanes after the last round cost nothing.

    The engines pass their compile-time byte constants here; the autotuner
    (:mod:`repro.tune`) instead *fits* both per-element parameters from the
    decisions a recorded run logged (:func:`repro.tune.fit_element_bytes`)
    and replays candidate policies against the fitted model.
    """
    if live < 0 or dead < 0:
        raise ValueError("live and dead element counts must be non-negative")
    total = live + dead
    gather = (total + live) * gather_element_bytes
    carried = dead * dead_element_bytes * max(0, rounds_remaining)
    return CompactionCost(gather_bytes=int(gather), dead_lane_bytes=int(carried))


@dataclass(frozen=True)
class CostModel:
    """Bandwidth roofline: ``seconds = bytes / (bandwidth_gbs * efficiency)``.

    ``interconnect_gbs`` models the inter-device links of a
    :class:`~repro.device.device.DeviceGroup`; :meth:`interconnect_seconds`
    prices halo bytes against it (the autotuner and ``render_trace`` use it
    for the interconnect rows of a sharded run).
    """

    bandwidth_gbs: float = RTX_2080_TI_BANDWIDTH_GBS
    efficiency: float = 1.0
    interconnect_gbs: float = NVLINK_BANDWIDTH_GBS

    def seconds(self, nbytes: int) -> float:
        """Modeled execution time of a launch moving ``nbytes`` bytes."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        return nbytes / (self.bandwidth_gbs * 1e9 * self.efficiency)

    def interconnect_seconds(self, nbytes: int) -> float:
        """Modeled transfer time of ``nbytes`` bytes over the interconnect."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        return nbytes / (self.interconnect_gbs * 1e9)

    def throughput_gbs(self, nbytes: int, seconds: float) -> float:
        """Achieved throughput of a (measured or modeled) launch."""
        if seconds <= 0.0:
            raise ValueError("seconds must be positive")
        return nbytes / seconds / 1e9

    def with_efficiency(self, efficiency: float) -> "CostModel":
        return CostModel(
            bandwidth_gbs=self.bandwidth_gbs,
            efficiency=efficiency,
            interconnect_gbs=self.interconnect_gbs,
        )
