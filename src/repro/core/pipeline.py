"""End-to-end linear-forest extraction with the Figure 6 timing breakdown.

The four steps of Section 3.3 — [0,2]-factor, cycle breaking, path
identification, permutation + coefficient extraction — orchestrated into one
call.  Phase wall-clock times are recorded under the same labels as the
paper's Figure 6 time breakdown ("[0,2]-factor computation", "bidirectional
scans", "coefficient extraction").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..device.device import Device, DeviceGroup
from ..device.profiler import TimingBreakdown
from ..errors import ConfigError
from ..obs import current_metrics, trace_span
from ..sparse.build import PreparedGraph, prepare_graph
from ..sparse.csr import CSRMatrix
from .coverage import band_coverage
from .cycles import BrokenCycles, break_cycles, labelled_pass
from .extraction import TridiagonalSystem, extract_tridiagonal
from .factor import ParallelFactorConfig, ParallelFactorResult, parallel_factor
from .frontier import resolve_compaction
from .partition import VertexPartition, group_attrs, resolve_device
from .paths import PathInfo, identify_paths
from .permutation import forest_permutation
from .scan import BidirectionalScan
from .structures import Factor

__all__ = ["LinearForestResult", "extract_linear_forest"]

PHASE_FACTOR = "[0,2]-factor"
PHASE_SCANS = "bidirectional scans"
PHASE_EXTRACT = "coefficient extraction"


@dataclass(frozen=True)
class LinearForestResult:
    """Everything the pipeline produces.

    Attributes
    ----------
    graph:
        The prepared adjacency ``A'`` (or ``A' + A'^T``), a
        :class:`~repro.sparse.build.PreparedGraph` that records which.
    factor_result:
        The raw parallel [0,2]-factor outcome (may contain cycles).
    broken:
        Cycle-breaking outcome; ``broken.forest`` is the linear forest.
    paths:
        Per-vertex path id and position.
    perm:
        ``perm[k]`` = old id of the vertex at new position ``k``.
    tridiagonal:
        The extracted tridiagonal system in the permuted space.
    coverage:
        c_π of the linear forest with respect to the original matrix.
    timings:
        Wall-clock breakdown over the three Figure 6 phases.
    """

    graph: PreparedGraph
    factor_result: ParallelFactorResult
    broken: BrokenCycles
    paths: PathInfo
    perm: np.ndarray
    tridiagonal: TridiagonalSystem
    coverage: float
    timings: TimingBreakdown

    @property
    def forest(self) -> Factor:
        return self.broken.forest

    @property
    def frontier_history(self) -> list[int]:
        """Active-edge frontier per factor round (proposition convergence)."""
        return self.factor_result.frontier_history


def extract_linear_forest(
    a: CSRMatrix,
    config: ParallelFactorConfig | None = None,
    *,
    device: Device | DeviceGroup | None = None,
    devices: int | None = None,
    partition: VertexPartition | None = None,
    merged_scan: bool = True,
    compaction=None,
    prepared_graph: PreparedGraph | None = None,
    charge_ids: np.ndarray | None = None,
) -> LinearForestResult:
    """Run the complete pipeline of the paper on an input matrix ``A``.

    ``config.n`` must be 2 (linear forests come from [0,2]-factors); the
    remaining parameters default to the paper's default configuration
    (M = 5, m = 5, k_m = 0, p = 0.5).

    A :class:`~repro.device.device.DeviceGroup` as ``device`` (or a device
    count ``devices``, which builds a non-recording group) shards every
    engine over a 1-D vertex partition — ``partition``, default uniform —
    with halo exchange metered on the group's interconnect.  When neither
    is given, ``REPRO_DEVICES`` selects the ambient device count; an
    explicit single :class:`~repro.device.device.Device` always pins the
    one-shard path (see :func:`repro.core.partition.resolve_device`).
    Results are bit-identical for every device count (see
    ``docs/SHARDING.md``).

    With ``merged_scan`` (the default) one butterfly pass,
    :func:`~repro.core.cycles.labelled_pass`, carries a cycle label and the
    position accumulator per lane.  :func:`~repro.core.cycles.break_cycles`
    then breaks each cycle at its weakest edge with one segmented minimum
    over the cycle edges alone, on the host, and every vertex off a cycle
    keeps the position the pass gave it.  Only the broken cycles' lanes
    jump again, on the broken forest; an acyclic factor — the common case
    on well-charged factors — reads no weight and needs no second scan at
    all.  Without it, the paper's two scans run: the weakest-edge scan
    (:class:`~repro.core.scan.MinEdgeOperator`), then the position scan on
    the whole broken forest.  Results are bit-identical either way; only
    launch counts and bytes moved differ.

    ``compaction`` selects the frontier-compaction policy of *both* engines
    (proposition rounds and bidirectional scans) — a policy instance, a spec
    string (``"eager"``, ``"never"``, ``"lazy[:threshold]"``, ``"adaptive"``,
    ``"auto"``), or ``None`` to honour ``REPRO_COMPACTION`` (default eager).
    ``"auto"`` fingerprints the prepared graph against the
    :mod:`repro.tune` cache and falls back to adaptive on any miss.  Results
    are bit-identical under every policy (see :mod:`repro.core.frontier`).

    ``prepared_graph`` skips the internal :func:`prepare_graph` call and uses
    the given :class:`~repro.sparse.build.PreparedGraph` of ``a`` directly (a
    plain matrix is a :class:`~repro.errors.ConfigError`).  The batch engine
    prepares each member *before* packing — preparation is the one step that
    is not member-local on a packed graph (symmetry is a global property) —
    and passes the packed prepared graph here.  ``charge_ids`` overrides the
    vertex identities hashed by the charge kernel (see
    :func:`repro.core.charge.vertex_charges`).
    """
    config = config or ParallelFactorConfig(n=2)
    if config.n != 2:
        raise ValueError(f"linear-forest extraction requires n=2, got n={config.n}")
    if prepared_graph is not None and not isinstance(prepared_graph, PreparedGraph):
        raise ConfigError("prepared_graph must be a PreparedGraph from prepare_graph")
    device = resolve_device(device, devices)
    group = device if isinstance(device, DeviceGroup) else None
    timings = TimingBreakdown()
    metrics = current_metrics() if group is not None else None
    halo_before = group.interconnect.total_bytes() if group is not None else 0

    with trace_span(
        "extract-linear-forest",
        category="run",
        n_vertices=a.n_rows,
        nnz=a.nnz,
        merged_scan=merged_scan,
        dtype=str(a.data.dtype),
        **group_attrs(device),
    ) as root:
        with timings.phase(PHASE_FACTOR):
            graph = prepared_graph if prepared_graph is not None else prepare_graph(a)
            # resolve once the prepared graph exists: the "auto" spec
            # fingerprints it against the tuning cache, and every engine
            # below then shares the one concrete policy instance
            policy = resolve_compaction(compaction, graph=graph)
            if root is not None:
                root.attributes["compaction"] = policy.name
            if metrics is not None:
                metrics.counter("shard.runs").inc()
                metrics.gauge("shard.devices").set(len(group))
            factor_result = parallel_factor(
                graph, config, device=device, partition=partition,
                compaction=policy, charge_ids=charge_ids,
            )

        with timings.phase(PHASE_SCANS):
            if merged_scan:
                scan = BidirectionalScan(
                    factor_result.factor, device=device, partition=partition,
                    compaction=policy,
                )
                fused = scan.run(labelled_pass(), graph)
                broken = break_cycles(factor_result.factor, graph, scan_result=fused)
                paths = identify_paths(
                    broken.forest, device=device, partition=partition,
                    compaction=policy, scan_result=fused,
                )
            else:
                broken = break_cycles(
                    factor_result.factor, graph, device=device,
                    partition=partition, compaction=policy,
                )
                paths = identify_paths(
                    broken.forest, device=device, partition=partition,
                    compaction=policy,
                )
            perm = forest_permutation(paths)

        with timings.phase(PHASE_EXTRACT):
            tridiagonal = extract_tridiagonal(
                a, broken.forest, perm, device=device, partition=partition
            )

        cov = band_coverage(a, broken.forest, perm, tridiagonal)
        if root is not None:
            root.attributes.update(
                coverage=cov,
                n_cycles=broken.n_cycles,
                n_paths=paths.n_paths,
                factor_iterations=factor_result.iterations,
            )
        if group is not None:
            halo_bytes = group.interconnect.total_bytes() - halo_before
            if metrics is not None:
                metrics.counter("shard.halo.bytes").inc(halo_bytes)
            if root is not None:
                root.attributes["interconnect_bytes"] = halo_bytes

    return LinearForestResult(
        graph=graph,
        factor_result=factor_result,
        broken=broken,
        paths=paths,
        perm=perm,
        tridiagonal=tridiagonal,
        coverage=cov,
        timings=timings,
    )
