"""Ablation variants of the paper's design choices (DESIGN.md D2-D5).

Each variant here is a *road not taken* that the paper argues against; the
ablation benchmarks quantify the claims:

* :func:`merged_linear_forest` — **D3**: Section 3.3 notes that the cycle
  scan and the position scan *"can be merged by searching for the weakest
  edge and the distance to it, but in practice this incurs more data movement
  and longer running times"*.  This is that merged single-scan algorithm: one
  bidirectional scan carrying six payload fields (position, weakest-edge
  triple, distance to and near endpoint of the weakest edge) instead of two
  scans with three and one.
* :func:`propose_accept_factor` — **D2**: the MST-style relaxation in which
  confirmations need not be mutual: targets *accept* the strongest incoming
  propositions up to their capacity.  More edges per round, but the
  acceptance step is an extra scatter/reduce with irregular contention.
* :func:`propose_edges_segmented_sort` — **D4**: the proposition implemented
  with a full segmented sort of every row (the CUB-primitive formulation the
  paper measured to be ~an order of magnitude slower) instead of the top-n
  accumulator.
* :class:`UnsafeInPlaceScan` — the "no ping-pong" ablation: Section 4.2
  explains double buffering is required because *"other threads might read a
  value of a neighboring vertex ... after the update ... has already
  overwritten the original input value"*.  This variant shares one buffer and
  demonstrates the resulting corruption.
* :class:`ReferenceScan` — the paper's *exhaustive* scan engine: always
  ⌈log₂N⌉ launches, full ping-pong buffer copies every step, no frontier
  compaction.  It is the oracle the convergence-aware
  :class:`~repro.core.scan.BidirectionalScan` is property-tested against
  (results must be bit-identical) and the traffic baseline of the
  convergence benchmarks.
* :class:`TripleMinEdgeOperator` — the paper's weakest-edge ⊕: every lane
  carries the (|weight|, min id, max id) triple through every launch and ⊕
  is the lexicographic minimum.  It is the oracle of
  :class:`~repro.core.scan.MinEdgeOperator`, which ranks the triple into
  one int64 key and reduces it with ``np.minimum``.
* :func:`reference_parallel_factor` — the paper-exact Algorithm 2 round
  loop: every round launches charge/propose/mutualize over the *full*
  nonzero array (:func:`~repro.core.factor.propose_edges` re-masks all nnz
  entries each call), with no frontier compaction and no empty-frontier
  early exit.  The oracle and traffic baseline for the convergence-aware
  :class:`~repro.core.proposer.PropositionEngine`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import INDEX_DTYPE, VALUE_DTYPE
from ..device.buffers import PingPong
from ..device.device import DeviceGroup
from ..errors import ScanError
from ..sparse.csr import CSRMatrix
from .charge import vertex_charges
from .factor import ParallelFactorConfig, ParallelFactorResult
from .paths import PathInfo
from .scan import (
    BidirectionalScan,
    Payload,
    ScanResult,
    decode_end,
    edge_weights,
    finish_payload,
    is_path_end,
    operator_label,
    scan_steps,
)
from .structures import NO_PARTNER, Factor

__all__ = [
    "MergedForestResult",
    "MergedOperator",
    "ReferenceScan",
    "TripleMinEdgeOperator",
    "UnsafeInPlaceScan",
    "merged_linear_forest",
    "propose_accept_factor",
    "propose_edges_segmented_sort",
    "reference_parallel_factor",
]


class ReferenceScan(BidirectionalScan):
    """The exhaustive Section-4.2 scan: every step launches, full copies.

    This preserves the pre-compaction engine exactly: ⌈log₂N⌉ launches
    regardless of convergence, and each launch copies the complete ``(N, 2)``
    ping-pong buffers of ``q`` and every payload array.  The convergence
    tests assert :class:`~repro.core.scan.BidirectionalScan` is bit-identical
    to this engine on every topology; the convergence benchmarks use it as
    the launch/traffic baseline.  It launches on one
    :class:`~repro.device.Device`; the sharded engines are compared with a
    one-device reference.
    """

    def run(self, operator, graph=None, *, steps=None):
        if isinstance(self.device, DeviceGroup):
            raise ScanError(
                f"ReferenceScan runs on one device, not a DeviceGroup of {len(self.device)}"
            )
        n_vertices = self.factor.n_vertices
        n_steps = scan_steps(n_vertices) if steps is None else steps
        ids = self._ids
        label = operator_label(operator)
        q_pp = PingPong(self._q0)
        payload0 = operator.init(self.factor, graph)
        payload_pp = {name: PingPong(arr) for name, arr in payload0.items()}
        launches = 0
        active_history: list[int] = []

        for step in range(n_steps):
            q_back = q_pp.back
            p_back = {name: pp.back for name, pp in payload_pp.items()}
            q_front = q_pp.front
            p_front = {name: pp.front for name, pp in payload_pp.items()}
            reads = [q_back, *p_back.values()]
            writes = [q_front, *p_front.values()]
            n_active = int((q_back >= 0).sum())
            active_history.append(n_active)
            with self.device.launch(
                f"bidirectional-scan[{label}|step={step}]",
                reads=reads,
                writes=writes,
                active_lanes=n_active,
                total_lanes=2 * n_vertices,
            ):
                q_front[...] = q_back
                for name in p_front:
                    p_front[name][...] = p_back[name]
                for lane in (0, 1):
                    w = q_back[:, lane]
                    active = ~is_path_end(w)
                    idx = np.flatnonzero(active)
                    if idx.size == 0:
                        continue
                    far = w[idx]
                    far_q = q_back[far]  # (m, 2) — the neighbour's snapshot
                    far_p = {name: p_back[name][far] for name in p_back}
                    for j in (0, 1):
                        extend = far_q[:, j] != ids[idx]
                        sub = idx[extend]
                        if sub.size == 0:
                            continue
                        current = {name: p_front[name][sub, lane] for name in p_front}
                        contribution = {name: far_p[name][extend, j] for name in far_p}
                        merged = operator.combine(current, contribution)
                        for name in p_front:
                            p_front[name][sub, lane] = merged[name]
                        q_front[sub, lane] = far_q[extend, j]
            launches += 1
            q_pp.swap()
            for pp in payload_pp.values():
                pp.swap()

        return ScanResult(
            q=q_pp.back.copy(),
            payload=finish_payload(
                operator, {name: pp.back.copy() for name, pp in payload_pp.items()}
            ),
            steps=n_steps,
            launches=launches,
            active_per_launch=tuple(active_history),
        )


class TripleMinEdgeOperator:
    """The paper's weakest-edge ⊕ (Section 3.3 step 1), the triple itself.

    Each lane carries (|weight| of the edge's lighter direction, min
    endpoint, max endpoint) through every launch, (+inf, int64 max, int64
    max) on a missing lane, and ⊕ keeps the lexicographic minimum.  :class:`~repro.core.scan.MinEdgeOperator`'s
    finished payload must equal this one bit for bit.
    """

    _INF = np.iinfo(INDEX_DTYPE).max

    def init(self, factor: Factor, graph: CSRMatrix | None) -> Payload:
        if graph is None:
            raise ScanError("TripleMinEdgeOperator requires the weighted graph")
        n_vertices = factor.n_vertices
        ids = np.arange(n_vertices, dtype=INDEX_DTYPE)
        w = np.full((n_vertices, 2), np.inf, dtype=VALUE_DTYPE)
        u = np.full((n_vertices, 2), self._INF, dtype=INDEX_DTYPE)
        v = np.full((n_vertices, 2), self._INF, dtype=INDEX_DTYPE)
        for lane in range(min(factor.n, 2)):
            nbr = factor.neighbors[:, lane]
            valid = nbr != NO_PARTNER
            vv = ids[valid]
            nn = nbr[valid]
            w[valid, lane] = edge_weights(graph, vv, nn)
            u[valid, lane] = np.minimum(vv, nn)
            v[valid, lane] = np.maximum(vv, nn)
        return {"w": w, "u": u, "v": v}

    def combine(self, current: Payload, far: Payload) -> Payload:
        take_far = _triple_less(far, current)
        return {name: np.where(take_far, far[name], current[name]) for name in "wuv"}


def _triple_less(a: Payload, b: Payload) -> np.ndarray:
    """Where the triple ``(w, u, v)`` of ``a`` is lexicographically smaller
    than that of ``b``."""
    less = a["w"] < b["w"]
    tie_w = a["w"] == b["w"]
    less |= tie_w & (a["u"] < b["u"])
    less |= tie_w & (a["u"] == b["u"]) & (a["v"] < b["v"])
    return less


# ---------------------------------------------------------------------------
# paper-exact Algorithm 2 rounds (no frontier compaction)
# ---------------------------------------------------------------------------


def reference_parallel_factor(
    graph: CSRMatrix,
    config: ParallelFactorConfig | None = None,
    *,
    device=None,
    coverage_matrix: CSRMatrix | None = None,
) -> ParallelFactorResult:
    """The paper-exact Algorithm 2 loop: full-nnz rounds, no early exit.

    Every iteration launches charge (when scheduled), propose and mutualize
    kernels whose reads cover the complete CSR arrays — the proposition
    re-masks all nonzeros each round, exactly as the paper's kernels do.
    The only exit before ``M`` is the paper's own maximality test (zero
    propositions on an un-charged round).  Results are bit-identical to
    :func:`repro.core.factor.parallel_factor`, which this function serves as
    oracle and launch/traffic baseline for.
    """
    from ..device.device import default_device
    from .coverage import coverage as coverage_of
    from .factor import _confirm_mutual, propose_edges

    config = config or ParallelFactorConfig()
    device = device or default_device()
    n_vertices = graph.n_rows
    n = config.n

    confirmed = np.full((n_vertices, n), NO_PARTNER, dtype=INDEX_DTYPE)
    coverage_history: list[float] = []
    proposals_history: list[int] = []
    m_max: int | None = None
    converged = False
    iterations = 0

    for k in range(config.max_iterations):
        charging = config.charging_enabled(k)
        charges = None
        if charging:
            with device.launch(f"charge[k={k}]", writes=()):
                charges = vertex_charges(n_vertices, k, p=config.p, seed=config.seed)

        with device.launch(
            f"propose[k={k}]",
            reads=(graph.data, graph.indices, graph.indptr, confirmed),
        ) as kl:
            prop_cols, prop_vals, prop_counts = propose_edges(
                graph, confirmed, n, charges=charges
            )
            if charges is not None:
                kl.reads(charges)
            kl.writes(prop_cols, prop_vals, prop_counts)
        total_proposals = int(prop_counts.sum())
        proposals_history.append(total_proposals)
        iterations = k + 1

        if total_proposals == 0 and not charging:
            m_max = k + 1
            converged = True
            if coverage_matrix is not None:
                coverage_history.append(
                    coverage_of(coverage_matrix, Factor(confirmed))
                )
            break

        degree = (confirmed != NO_PARTNER).sum(axis=1).astype(INDEX_DTYPE)
        with device.launch(
            f"mutualize[k={k}]", reads=(prop_cols,), writes=(confirmed,)
        ):
            _confirm_mutual(confirmed, degree, prop_cols)

        if coverage_matrix is not None:
            coverage_history.append(coverage_of(coverage_matrix, Factor(confirmed)))

    return ParallelFactorResult(
        factor=Factor(confirmed),
        iterations=iterations,
        m_max=m_max,
        converged=converged,
        coverage_history=coverage_history,
        proposals_per_iteration=proposals_history,
    )


# ---------------------------------------------------------------------------
# D3: merged cycle + position scan
# ---------------------------------------------------------------------------


class MergedOperator:
    """Position payload fused with weakest-edge tracking.

    Per lane: ``r`` (the stride/position accumulator), the weakest-edge
    triple ``(w, u, v)``, the distance ``dist`` from this vertex to the near
    endpoint of that edge, and the near endpoint ``near`` itself.  The merge
    rule keeps the *first* (nearest) occurrence of the minimum so that
    ``dist`` stays exact even when pointer jumping wraps around a cycle.
    """

    _INF = np.iinfo(INDEX_DTYPE).max

    def init(self, factor: Factor, graph: CSRMatrix | None) -> Payload:
        if graph is None:
            raise ScanError("MergedOperator requires the weighted graph")
        triple = TripleMinEdgeOperator().init(factor, graph)
        ids = np.arange(factor.n_vertices, dtype=INDEX_DTYPE)
        return {
            "r": np.ones_like(triple["u"]),
            **triple,
            "dist": np.zeros_like(triple["u"]),
            # an edge lane's near endpoint is its own vertex; a missing one has none
            "near": np.where(triple["u"] == self._INF, self._INF, ids[:, None]),
        }

    def combine(self, current: Payload, far: Payload) -> Payload:
        # ties keep the nearer (current) occurrence
        take_far = _triple_less(far, current)
        return {
            "r": current["r"] + far["r"],
            **{name: np.where(take_far, far[name], current[name]) for name in "wuv"},
            # the far segment starts current["r"] edges away
            "dist": np.where(take_far, current["r"] + far["dist"], current["dist"]),
            "near": np.where(take_far, far["near"], current["near"]),
        }


@dataclass(frozen=True)
class MergedForestResult:
    forest: Factor
    paths: PathInfo
    removed_u: np.ndarray
    removed_v: np.ndarray
    cycle_mask: np.ndarray


def merged_linear_forest(
    factor: Factor,
    graph: CSRMatrix,
    *,
    device=None,
) -> MergedForestResult:
    """Cycle breaking *and* path identification from a single scan (D3).

    Path vertices take their ids/positions from the clamped lanes as in
    Algorithm 3.  Cycle vertices reconstruct them from the fused payload:
    the cycle is broken at its weakest edge ``(u*, v*)``; the new path id is
    ``min(u*, v*)`` and the position of a vertex is ``dist + 1`` along the
    lane whose near endpoint equals that minimum.
    """
    scan = BidirectionalScan(factor, device=device)
    result = scan.run(MergedOperator(), graph)
    n = factor.n_vertices
    rows = np.arange(n, dtype=INDEX_DTYPE)
    cycle_mask = result.cycle_mask

    # --- path part: exactly Algorithm 3's epilogue ------------------------
    q = result.q
    r = result.payload["r"]
    path_id = np.zeros(n, dtype=INDEX_DTYPE)
    position = np.zeros(n, dtype=INDEX_DTYPE)
    path_vertices = ~cycle_mask
    ends = decode_end(np.where(q < 0, q, -1))  # garbage on cycle lanes, masked
    lane = np.argmin(np.where(q < 0, ends, np.iinfo(INDEX_DTYPE).max), axis=1)
    path_id[path_vertices] = ends[rows, lane][path_vertices]
    position[path_vertices] = r[rows, lane][path_vertices]

    # --- cycle part --------------------------------------------------------
    removed_u = np.empty(0, dtype=INDEX_DTYPE)
    removed_v = np.empty(0, dtype=INDEX_DTYPE)
    forest = factor
    if bool(cycle_mask.any()):
        w = result.payload["w"]
        u = result.payload["u"]
        v = result.payload["v"]
        dist = result.payload["dist"]
        near = result.payload["near"]
        lane1_smaller = (w[:, 1] < w[:, 0]) | (
            (w[:, 1] == w[:, 0])
            & ((u[:, 1] < u[:, 0]) | ((u[:, 1] == u[:, 0]) & (v[:, 1] < v[:, 0])))
        )
        min_lane = lane1_smaller.astype(INDEX_DTYPE)
        cyc = np.flatnonzero(cycle_mask)
        min_u = u[cyc, min_lane[cyc]]
        min_v = v[cyc, min_lane[cyc]]
        pairs = np.unique(np.stack([min_u, min_v], axis=1), axis=0)
        removed_u, removed_v = pairs[:, 0], pairs[:, 1]
        forest = factor.remove_edges(removed_u, removed_v)

        # Reconstruct positions on the broken cycle.  When pointer jumping
        # wrapped (cycle length not a power of two) both lanes covered the
        # whole cycle, found the same global minimum and their near endpoints
        # are its two endpoints — pick the lane pointing at min(u*, v*).
        # Power-of-two cycles stall at stride L/2: each lane covers one half,
        # only one holds the global minimum, and its near endpoint may be the
        # *max* endpoint; then position = L - dist with L = r₀ + r₁ (exact in
        # the stall case).
        new_id = np.minimum(min_u, min_v)
        path_id[cyc] = new_id
        k_idx = np.arange(cyc.size)
        lane_near = near[cyc]  # (k, 2)
        lane_dist = dist[cyc]
        has_min_lane = (u[cyc] == min_u[:, None]) & (v[cyc] == min_v[:, None]) & (
            w[cyc] == w[cyc, min_lane[cyc]][:, None]
        )
        toward = (lane_near == new_id[:, None]) & has_min_lane
        direct = toward.any(axis=1)
        sel_lane = toward.argmax(axis=1)
        position[cyc[direct]] = lane_dist[k_idx[direct], sel_lane[direct]] + 1
        # fallback: the global-min lane points at the max endpoint
        fb = ~direct
        if bool(fb.any()):
            cycle_len = result.payload["r"][cyc][:, 0] + result.payload["r"][cyc][:, 1]
            fb_lane = min_lane[cyc][fb]
            position[cyc[fb]] = cycle_len[fb] - lane_dist[k_idx[fb], fb_lane]

    return MergedForestResult(
        forest=forest,
        paths=PathInfo(path_id=path_id, position=position),
        removed_u=removed_u,
        removed_v=removed_v,
        cycle_mask=cycle_mask,
    )


# ---------------------------------------------------------------------------
# D2: non-mutual propose/accept rounds
# ---------------------------------------------------------------------------


def propose_accept_factor(
    graph: CSRMatrix,
    config: ParallelFactorConfig | None = None,
) -> ParallelFactorResult:
    """MST-style variant: targets accept the strongest incoming proposals.

    Instead of requiring mutual propositions (Alg. 2 line 27), every vertex
    accepts incoming proposals in weight order up to its remaining capacity.
    This confirms more edges per round but needs an extra segmented reduction
    over the *incoming* side and a conflict-resolution pass.
    """
    config = config or ParallelFactorConfig()
    n = config.n
    n_vertices = graph.n_rows
    confirmed = np.full((n_vertices, n), NO_PARTNER, dtype=INDEX_DTYPE)
    proposals_history: list[int] = []
    m_max = None
    converged = False
    iterations = 0

    from .factor import propose_edges

    for k in range(config.max_iterations):
        charging = config.charging_enabled(k)
        charges = (
            vertex_charges(n_vertices, k, p=config.p, seed=config.seed)
            if charging
            else None
        )
        prop_cols, prop_vals, prop_counts = propose_edges(
            graph, confirmed, n, charges=charges
        )
        total = int(prop_counts.sum())
        proposals_history.append(total)
        iterations = k + 1
        if total == 0 and not charging:
            m_max = k + 1
            converged = True
            break

        # flatten directed proposals p -> t
        valid = prop_cols != NO_PARTNER
        src, slot = np.nonzero(valid)
        tgt = prop_cols[src, slot]
        wgt = prop_vals[src, slot]
        # dedupe mutual pairs: keep one representative per undirected edge
        lo = np.minimum(src, tgt)
        hi = np.maximum(src, tgt)
        _, first = np.unique(lo * n_vertices + hi, return_index=True)
        src, tgt, wgt = src[first], tgt[first], wgt[first]

        # greedy acceptance in global weight order (deterministic sequential
        # tie-breaking; the GPU version would run rounds of atomic claims)
        order = np.lexsort((hi[first], lo[first], -wgt))
        degree = (confirmed != NO_PARTNER).sum(axis=1)
        deg = degree.copy()
        add_u: list[int] = []
        add_v: list[int] = []
        for i in order.tolist():
            a, b = int(src[i]), int(tgt[i])
            if deg[a] < n and deg[b] < n:
                add_u.append(a)
                add_v.append(b)
                deg[a] += 1
                deg[b] += 1
        for a, b in zip(add_u, add_v):
            confirmed[a, degree[a]] = b
            confirmed[b, degree[b]] = a
            degree[a] += 1
            degree[b] += 1

    return ParallelFactorResult(
        factor=Factor(confirmed),
        iterations=iterations,
        m_max=m_max,
        converged=converged,
        proposals_per_iteration=proposals_history,
    )


# ---------------------------------------------------------------------------
# D4: proposition via full segmented sort
# ---------------------------------------------------------------------------


def propose_edges_segmented_sort(
    graph: CSRMatrix,
    confirmed: np.ndarray,
    n: int,
    *,
    charges: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Proposition by sorting *every* row completely, then taking the first
    eligible entries — the segmented-sort formulation the paper found ~10x
    slower than the fused top-n accumulator.  Results are identical to
    :func:`repro.core.factor.propose_edges`."""
    n_vertices = graph.n_rows
    rows_nnz = graph.nnz_rows
    cols = graph.indices
    degree = (confirmed != NO_PARTNER).sum(axis=1).astype(INDEX_DTYPE)
    # full segmented sort of all rows by descending weight (eligible or not)
    order = np.lexsort((cols, -graph.data, rows_nnz))
    sorted_rows = rows_nnz[order]
    sorted_cols = cols[order]
    sorted_vals = graph.data[order]
    # eligibility evaluated after the sort (the extra work of this variant)
    eligible = degree[sorted_cols] < n
    eligible &= sorted_cols != sorted_rows
    if charges is not None:
        eligible &= charges[sorted_rows] != charges[sorted_cols]
    eligible &= ~(confirmed[sorted_rows] == sorted_cols[:, None]).any(axis=1)

    capacity = np.minimum(n - degree, n)
    # rank among eligible entries of the same row
    elig_int = eligible.astype(INDEX_DTYPE)
    cum = np.cumsum(elig_int)
    row_starts = graph.indptr[:-1]
    base = np.zeros(n_vertices, dtype=INDEX_DTYPE)
    non_empty = graph.row_lengths > 0
    base[non_empty] = cum[row_starts[non_empty]] - elig_int[row_starts[non_empty]]
    rank = cum - 1 - base[sorted_rows]
    selected = eligible & (rank < capacity[sorted_rows])

    prop_cols = np.full((n_vertices, n), NO_PARTNER, dtype=INDEX_DTYPE)
    prop_vals = np.zeros((n_vertices, n), dtype=VALUE_DTYPE)
    counts = np.zeros(n_vertices, dtype=INDEX_DTYPE)
    sel = np.flatnonzero(selected)
    prop_cols[sorted_rows[sel], rank[sel]] = sorted_cols[sel]
    prop_vals[sorted_rows[sel], rank[sel]] = sorted_vals[sel]
    np.add.at(counts, sorted_rows[sel], 1)
    return prop_cols, prop_vals, counts


# ---------------------------------------------------------------------------
# ping-pong necessity: the unsafe in-place scan
# ---------------------------------------------------------------------------


class UnsafeInPlaceScan(BidirectionalScan):
    """Bidirectional scan *without* double buffering.

    Kernels read and write the same buffer, so a "thread" may observe a
    neighbour's already-updated tuple — exactly the race Section 4.2's
    ping-pong buffers prevent.  On the simulated device the corruption is
    deterministic (vertices update in id order), which makes it easy to
    demonstrate: positions become wrong on most multi-vertex paths.
    """

    def run(self, operator, graph=None, *, steps=None):
        n_vertices = self.factor.n_vertices
        n_steps = scan_steps(n_vertices) if steps is None else steps
        ids = self._ids
        q = self._q0.copy()
        payload = operator.init(self.factor, graph)
        payload = {name: arr.copy() for name, arr in payload.items()}

        for _ in range(n_steps):
            for lane in (0, 1):
                w = q[:, lane]
                active = ~is_path_end(w)
                idx = np.flatnonzero(active)
                if idx.size == 0:
                    continue
                far = w[idx]
                far_q = q[far]  # RACE: may already contain this step's writes
                far_p = {name: payload[name][far] for name in payload}
                for j in (0, 1):
                    extend = far_q[:, j] != ids[idx]
                    sub = idx[extend]
                    if sub.size == 0:
                        continue
                    current = {name: payload[name][sub, lane] for name in payload}
                    contribution = {name: far_p[name][extend, j] for name in far_p}
                    merged = operator.combine(current, contribution)
                    for name in payload:
                        payload[name][sub, lane] = merged[name]
                    q[sub, lane] = far_q[extend, j]

        return ScanResult(
            q=q.copy(),
            payload=finish_payload(operator, payload),
            steps=n_steps,
            launches=n_steps,
        )
