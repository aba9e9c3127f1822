"""Sharded multi-device linear-forest extraction with halo exchange.

The pipeline of the paper distributes cleanly over a 1-D vertex partition
(:class:`~repro.core.partition.VertexPartition`) because every one of its
kernels is *row-local*: the proposition selects per CSR row, mutualization
writes per proposing vertex, the scan's scatter writes per (vertex, lane),
and band extraction writes per matrix row.  Each shard of a
:class:`~repro.device.device.DeviceGroup` therefore computes exactly the
rows it owns, and only the *reads* of remote state cross the
:class:`~repro.device.interconnect.Interconnect`:

========= =============================================================
tag       halo protocol step
========= =============================================================
``halo.degree``   degrees of remote proposal targets (propose round)
``halo.charges``  charge flags of remote targets (charged rounds only)
``halo.props``    remote proposal rows pulled for the mutuality check
``halo.scan``     remote far tuples of the bidirectional scan's gather
``halo.bands``    band values scattered into a remote permuted range
========= =============================================================

**The bit-identity argument** (property-tested in
``tests/properties/test_shard_properties.py``): the proposition's top-n
selection is a per-row rank over the row's eligible nonzeros
(:func:`repro.sparse.topn.top_n_per_row` sorts ``(row, -value, position)``
— position offsets within a contiguous row slice preserve order), the
mutual confirm assigns slots by per-vertex occurrence rank, and the scan
performs all gathers of a step before any scatter (one concurrent launch
per shard, exactly the synchronized halo-exchange step of a real multi-GPU
code).  Computing each of these per shard and concatenating therefore
reproduces the single-device arrays *bit for bit*, for every shard count,
dtype and compaction policy — the same correctness contract every engine
in this repo lives by.

Frontier compaction happens per shard: each shard owns the live mask of
its edge frontier and its scan candidate lists, and consults the (shared)
:class:`~repro.core.frontier.CompactionPolicy` against its *local* dead
fraction.  Decisions may differ from the single-device run — compaction
only ever moves traffic, never results.
"""

from __future__ import annotations

import os
from contextlib import ExitStack

import numpy as np

from .._validation import INDEX_DTYPE, VALUE_DTYPE, check_square
from ..device.device import DeviceGroup
from ..device.profiler import TimingBreakdown
from ..errors import ConfigError, ScanError, ShapeError
from ..obs import current_metrics, trace_span
from ..sparse.build import prepare_graph
from ..sparse.csr import CSRMatrix
from ..sparse.topn import validate_proposition_weights
from .charge import vertex_charges
from .coverage import coverage as coverage_of
from .cycles import break_cycles
from .extraction import TridiagonalSystem
from .factor import ParallelFactorConfig, ParallelFactorResult
from .frontier import (
    CompactionDecision,
    FrontierState,
    record_decision,
    resolve_compaction,
    wants_auto,
)
from .partition import VertexPartition
from .paths import paths_from_scan
from .permutation import forest_permutation, inverse_permutation
from .pipeline import (
    PHASE_EXTRACT,
    PHASE_FACTOR,
    PHASE_SCANS,
    LinearForestResult,
)
from .proposer import (
    DEAD_ELEMENT_BYTES,
    GATHER_ELEMENT_BYTES,
    _scatter_proposals,
    _segmented_rank,
    proposal_order,
)
from .scan import (
    CAND_DEAD_BYTES,
    CAND_GATHER_BYTES,
    AddOperator,
    FusedOperator,
    MinEdgeOperator,
    ScanResult,
    operator_label,
    scan_steps,
)
from .structures import NO_PARTNER, Factor

__all__ = [
    "ENV_DEVICES",
    "ShardedScan",
    "extract_linear_forest_sharded",
    "resolve_devices",
    "sharded_parallel_factor",
]

#: Environment variable consulted by :func:`resolve_devices` when no
#: explicit device count is given (mirrors ``REPRO_COMPACTION``).
ENV_DEVICES = "REPRO_DEVICES"

#: Interconnect bytes per remote vertex whose degree a proposing shard pulls.
_DEGREE_HALO_BYTES = 8
#: Interconnect bytes per remote vertex whose charge flag is pulled.
_CHARGE_HALO_BYTES = 1


def resolve_devices(devices: int | str | None = None) -> int | None:
    """Resolve a device count from the argument or ``$REPRO_DEVICES``.

    Returns ``None`` when neither is set — the caller stays on the classic
    single-device path.  Mirrors the ``REPRO_COMPACTION`` convention:
    the explicit argument wins, the environment variable is the ambient
    default, and bad values raise :class:`~repro.errors.ConfigError`
    naming their source.
    """
    if devices is not None:
        try:
            value = int(devices)
        except (TypeError, ValueError):
            raise ConfigError(f"devices must be an integer, got {devices!r}") from None
        if value < 1:
            raise ConfigError(f"devices must be >= 1, got {value}")
        return value
    raw = os.environ.get(ENV_DEVICES, "").strip()
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(
            f"{ENV_DEVICES} must be an integer device count, got {raw!r}"
        ) from None
    if value < 1:
        raise ConfigError(f"{ENV_DEVICES} must be >= 1, got {value}")
    return value


def _halo(
    group: DeviceGroup,
    partition: VertexPartition,
    shard: int,
    ids: np.ndarray,
    nbytes_per_id: int,
    tag: str,
    *,
    push: bool = False,
) -> None:
    """Meter one halo exchange: ``ids`` are the *remote* vertex ids a shard
    touches (deduplicated here — one message per remote row per step), and
    the transfer is grouped per owning peer device.  ``push=False`` pulls
    from the owner, ``push=True`` ships shard-computed values to it."""
    ids = np.asarray(ids)
    if ids.size == 0:
        return
    owners = partition.owner_of(np.unique(ids))
    me = group[shard].name
    for other, count in zip(*np.unique(owners, return_counts=True)):
        other = int(other)
        if other == shard:
            continue
        src, dst = (me, group[other].name) if push else (group[other].name, me)
        group.interconnect.transfer(
            int(count) * nbytes_per_id, src=src, dst=dst, tag=tag
        )


# -- sharded proposition rounds --------------------------------------------


class _ShardProposer:
    """Frontier-compacted proposition rounds over one contiguous row range.

    The per-shard analogue of :class:`~repro.core.proposer.PropositionEngine`:
    the pre-sorted ``(row, -value, position)`` key is hoisted out of the
    rounds, only the charge mask is recomputed per round, and the compaction
    policy decides when the shard's dead edges are physically gathered out.
    ``degree``/``charges``/``confirmed`` stay *global* arrays — reads of
    entries owned by other shards are the metered halo.
    """

    def __init__(
        self,
        graph: CSRMatrix,
        partition: VertexPartition,
        shard: int,
        n: int,
        policy,
    ):
        lo, hi = partition.range_of(shard)
        self.lo, self.hi = lo, hi
        self.shard = shard
        self.n = n
        self.policy = policy
        s0, s1 = int(graph.indptr[lo]), int(graph.indptr[hi])
        rows = graph.nnz_rows[s0:s1]
        cols = graph.indices[s0:s1]
        vals = np.asarray(graph.data[s0:s1], dtype=VALUE_DTYPE)
        order = proposal_order(rows, vals)
        rows, cols, vals = rows[order], cols[order], vals[order]
        live = cols != rows
        if not bool(live.all()):
            rows, cols, vals = rows[live], cols[live], vals[live]
        self._rows = rows
        self._cols = cols
        self._vals = vals
        self._live: np.ndarray | None = None
        self.frontier_size = int(rows.size)
        self.total_edges = s1 - s0
        self.decisions: list[CompactionDecision] = []
        self.gathered_elements = 0
        self._recompute_segments()

    def _recompute_segments(self) -> None:
        n_local = self.hi - self.lo
        self._rows_local = (self._rows - self.lo).astype(INDEX_DTYPE)
        counts = np.bincount(self._rows_local, minlength=n_local).astype(INDEX_DTYPE)
        starts = np.zeros(n_local, dtype=INDEX_DTYPE)
        if n_local > 1:
            np.cumsum(counts[:-1], out=starts[1:])
        self._row_starts = starts
        self._row_counts = counts

    def live_cols(self) -> np.ndarray:
        """Proposal-target columns of the still-live frontier entries."""
        if self._live is None:
            return self._cols
        return self._cols[self._live]

    def propose(
        self,
        confirmed: np.ndarray,
        degree: np.ndarray,
        charges: np.ndarray | None,
        launch,
    ) -> tuple[np.ndarray, np.ndarray]:
        """One round over this shard's rows; returns the local proposal
        slots ``(hi-lo, n)`` and per-row counts — bit-identical to the
        corresponding rows of :func:`repro.core.factor.propose_edges`."""
        n = self.n
        lo, hi = self.lo, self.hi
        rows, cols, vals = self._rows, self._cols, self._vals
        capacity = n - degree
        if charges is None:
            eligible = (
                np.ones(rows.size, dtype=bool)
                if self._live is None
                else self._live.copy()
            )
        else:
            eligible = charges[rows] != charges[cols]
            if self._live is not None:
                eligible &= self._live
        rank = _segmented_rank(
            self._rows_local, eligible, self._row_starts, self._row_counts, hi - lo
        )
        selected = eligible & (rank < capacity[rows])
        prop_cols, prop_vals, counts = _scatter_proposals(
            self._rows_local, cols, vals, selected, rank, hi - lo, n
        )
        if launch is not None:
            launch.reads(rows, cols, degree[lo:hi], vals[: int(counts.sum())])
            if charges is not None:
                launch.reads(charges[lo:hi])
            if self._live is not None:
                launch.reads(self._live)
            launch.writes(prop_cols, prop_vals, counts)
            launch.telemetry(
                active_lanes=self.frontier_size, total_lanes=self.total_edges
            )
        return prop_cols, counts

    def compact(self, confirmed: np.ndarray, *, launch, rounds_remaining: int) -> int:
        """Retire this shard's permanently ineligible edges (same keep mask
        as the single-device engine, restricted to the shard's slice)."""
        n = self.n
        rows, cols = self._rows, self._cols
        if rows.size == 0:
            return 0
        degree = (confirmed != NO_PARTNER).sum(axis=1).astype(INDEX_DTYPE)
        keep = (degree[rows] < n) & (degree[cols] < n)
        keep &= ~(confirmed[rows] == cols[:, None]).any(axis=1)
        live = keep if self._live is None else (keep & self._live)
        n_live = int(live.sum())
        newly_dead = self.frontier_size - n_live
        dead = int(rows.size) - n_live
        if dead == 0:
            return 0
        decision = self.policy.decide(
            FrontierState(
                live=n_live,
                dead=dead,
                gather_element_bytes=GATHER_ELEMENT_BYTES,
                dead_element_bytes=DEAD_ELEMENT_BYTES,
                rounds_remaining=rounds_remaining,
            )
        )
        self.decisions.append(decision)
        record_decision(decision, engine="proposition", launch=launch)
        self.frontier_size = n_live
        if decision.compact:
            if launch is not None:
                launch.reads(rows, cols, self._vals, confirmed[self.lo : self.hi])
            self._rows = rows[live]
            self._cols = cols[live]
            self._vals = self._vals[live]
            self._live = None
            self.gathered_elements += 3 * n_live
            self._recompute_segments()
            if launch is not None:
                launch.writes(self._rows, self._cols, self._vals)
        else:
            self._live = live
            if launch is not None:
                launch.reads(rows, cols, confirmed[self.lo : self.hi])
                launch.writes(live)
        return newly_dead


def _confirm_rows(
    confirmed: np.ndarray,
    degree: np.ndarray,
    prop_cols: np.ndarray,
    lo: int,
    hi: int,
) -> int:
    """:func:`repro.core.factor._confirm_mutual` restricted to rows
    ``[lo, hi)`` — the slot assignment is a per-vertex occurrence rank, so
    the restriction writes exactly the global result's rows."""
    local = prop_cols[lo:hi]
    valid = local != NO_PARTNER
    v_local, slots = np.nonzero(valid)
    if v_local.size == 0:
        return 0
    v_idx = (v_local + lo).astype(INDEX_DTYPE)
    w = local[v_local, slots]
    mutual = (prop_cols[w] == v_idx[:, None]).any(axis=1)
    new_v = v_idx[mutual]
    new_w = w[mutual]
    if new_v.size == 0:
        return 0
    occ = np.arange(new_v.size, dtype=INDEX_DTYPE) - np.searchsorted(
        new_v, new_v, side="left"
    )
    confirmed[new_v, degree[new_v] + occ] = new_w
    return int(new_v.size)


def sharded_parallel_factor(
    graph: CSRMatrix,
    config: ParallelFactorConfig | None = None,
    *,
    group: DeviceGroup,
    partition: VertexPartition | None = None,
    coverage_matrix: CSRMatrix | None = None,
    compaction=None,
    charge_ids: np.ndarray | None = None,
) -> ParallelFactorResult:
    """Algorithm 2 across the shards of a device group.

    Control flow mirrors :func:`repro.core.factor.parallel_factor` round for
    round (same convergence conditions on the *global* proposal count and
    frontier), with per-shard charge/propose/mutualize launches and halo
    metering on the group's interconnect.  The returned factor is
    bit-identical to the single-device run.
    """
    config = config or ParallelFactorConfig()
    n_vertices = graph.n_rows
    n = config.n
    if graph.n_rows != graph.n_cols:
        raise ShapeError("graph adjacency must be square")
    validate_proposition_weights(graph.data)
    partition = partition or VertexPartition.uniform(n_vertices, len(group))
    _check_layout(partition, group, n_vertices)
    policy = resolve_compaction(compaction, graph=graph)

    confirmed = np.full((n_vertices, n), NO_PARTNER, dtype=INDEX_DTYPE)
    coverage_history: list[float] = []
    proposals_history: list[int] = []
    frontier_history: list[int] = []
    m_max: int | None = None
    converged = False
    iterations = 0

    proposers = {
        s: _ShardProposer(graph, partition, s, n, policy)
        for s, lo, hi in partition
        if hi > lo
    }

    def _frontier() -> int:
        return sum(p.frontier_size for p in proposers.values())

    def _track_coverage() -> None:
        if coverage_matrix is not None:
            coverage_history.append(coverage_of(coverage_matrix, Factor(confirmed)))

    with trace_span(
        "parallel-factor",
        category="stage",
        n=n,
        max_iterations=config.max_iterations,
        n_vertices=n_vertices,
        total_edges=graph.nnz,
        compaction=policy.name,
        devices=len(group),
    ) as stage:
        for k in range(config.max_iterations):
            charging = config.charging_enabled(k)
            frontier = _frontier()
            frontier_history.append(frontier)
            iterations = k + 1

            with trace_span(
                f"factor-round[k={k}]",
                category="stage",
                k=k,
                charging=charging,
                frontier=frontier,
            ) as round_span:
                if frontier == 0:
                    proposals_history.append(0)
                    if round_span is not None:
                        round_span.attributes["proposals"] = 0
                    if not charging:
                        m_max = k + 1
                        converged = True
                        _track_coverage()
                        break
                    _track_coverage()
                    continue

                charges = None
                if charging:
                    charges = np.empty(n_vertices, dtype=bool)
                    for s, lo, hi in partition:
                        if lo == hi:
                            continue
                        with group[s].launch(f"charge[k={k}]") as kl:
                            ids = (
                                charge_ids[lo:hi]
                                if charge_ids is not None
                                else np.arange(lo, hi, dtype=np.uint32)
                            )
                            charges[lo:hi] = vertex_charges(
                                hi - lo, k, p=config.p, seed=config.seed, ids=ids
                            )
                            kl.writes(charges[lo:hi])

                degree = (confirmed != NO_PARTNER).sum(axis=1).astype(INDEX_DTYPE)
                prop_cols = np.full((n_vertices, n), NO_PARTNER, dtype=INDEX_DTYPE)
                total_proposals = 0
                for s, prop in proposers.items():
                    if prop.frontier_size == 0:
                        continue  # a converged shard never launches
                    targets = prop.live_cols()
                    remote = targets[(targets < prop.lo) | (targets >= prop.hi)]
                    _halo(group, partition, s, remote, _DEGREE_HALO_BYTES, "halo.degree")
                    if charging:
                        _halo(
                            group, partition, s, remote,
                            _CHARGE_HALO_BYTES, "halo.charges",
                        )
                    with group[s].launch(f"propose[k={k}]") as kl:
                        local_cols, counts = prop.propose(confirmed, degree, charges, kl)
                        prop_cols[prop.lo : prop.hi] = local_cols
                        total_proposals += int(counts.sum())
                proposals_history.append(total_proposals)
                if round_span is not None:
                    round_span.attributes["proposals"] = total_proposals

                if total_proposals == 0:
                    if not charging:
                        m_max = k + 1
                        converged = True
                        _track_coverage()
                        break
                    _track_coverage()
                    continue

                # Mutualize: all shards confirm against the frozen proposal
                # array (concurrent launches, like the scan step), then every
                # shard re-derives its frontier from the updated factor —
                # compaction must observe *all* confirms of the round, or a
                # boundary edge whose far endpoint just saturated would
                # linger in the frontier.
                n_new_total = 0
                with ExitStack() as stack:
                    handles = {}
                    for s, prop in proposers.items():
                        local = prop_cols[prop.lo : prop.hi]
                        has_props = bool((local != NO_PARTNER).any())
                        if prop.frontier_size == 0 and not has_props:
                            continue
                        if has_props:
                            w = local[local != NO_PARTNER]
                            remote_w = w[(w < prop.lo) | (w >= prop.hi)]
                            _halo(
                                group, partition, s, remote_w,
                                n * _DEGREE_HALO_BYTES, "halo.props",
                            )
                        kl = stack.enter_context(
                            group[s].launch(
                                f"mutualize[k={k}]",
                                reads=(local,),
                                writes=(confirmed[prop.lo : prop.hi],),
                            )
                        )
                        handles[s] = kl
                    for s, kl in handles.items():
                        prop = proposers[s]
                        n_new_total += _confirm_rows(
                            confirmed, degree, prop_cols, prop.lo, prop.hi
                        )
                    for s, kl in handles.items():
                        prop = proposers[s]
                        if n_new_total:
                            prop.compact(
                                confirmed,
                                launch=kl,
                                rounds_remaining=config.max_iterations - (k + 1),
                            )
                        kl.telemetry(
                            active_lanes=prop.frontier_size,
                            total_lanes=prop.total_edges,
                        )
                if round_span is not None:
                    round_span.attributes["confirmed_new"] = n_new_total

                _track_coverage()

        if stage is not None:
            stage.attributes.update(
                iterations=iterations, m_max=m_max, converged=converged
            )

    return ParallelFactorResult(
        factor=Factor(confirmed),
        iterations=iterations,
        m_max=m_max,
        converged=converged,
        coverage_history=coverage_history,
        proposals_per_iteration=proposals_history,
        frontier_history=frontier_history,
        compaction_decisions=[d for p in proposers.values() for d in p.decisions],
        gathered_elements=sum(p.gathered_elements for p in proposers.values()),
    )


# -- sharded bidirectional scan --------------------------------------------


class ShardedScan:
    """Algorithm 3's butterfly, sharded by path segment over a device group.

    Each step is one *synchronized halo-exchange round*: every shard's
    launch opens concurrently (via :class:`contextlib.ExitStack`), all
    shards gather their active lanes' far tuples — pulling tuples owned by
    other shards over the interconnect (``halo.scan``) — and only then does
    any shard scatter.  All reads of a step therefore complete before any
    write, exactly the ping-pong discipline of the single-device engine,
    which is what makes the merged pointer-jumping state bit-identical to
    :class:`~repro.core.scan.BidirectionalScan` at every step.

    Candidate lists and compaction verdicts are per shard; a shard whose
    lanes have all clamped stops launching (its peers keep jumping).
    """

    def __init__(
        self,
        factor: Factor,
        partition: VertexPartition,
        group: DeviceGroup,
        *,
        compaction=None,
    ):
        if factor.n > 2:
            raise ScanError(
                f"the bidirectional scan requires a [0,2]-factor, got n={factor.n}"
            )
        _check_layout(partition, group, factor.n_vertices)
        self.factor = factor
        self.partition = partition
        self.group = group
        self._compaction = compaction
        self.policy = None if wants_auto(compaction) else resolve_compaction(compaction)
        n_vertices = factor.n_vertices
        ids = np.arange(n_vertices, dtype=INDEX_DTYPE)
        q0 = np.full((n_vertices, 2), 0, dtype=INDEX_DTYPE)
        for lane in (0, 1):
            if lane < factor.n:
                nbr = factor.neighbors[:, lane]
            else:
                nbr = np.full(n_vertices, NO_PARTNER, dtype=INDEX_DTYPE)
            q0[:, lane] = np.where(nbr == NO_PARTNER, -(ids + 1), nbr)
        self._q0 = q0
        self._ids = ids

    def run(
        self,
        operator,
        graph: CSRMatrix | None = None,
        *,
        steps: int | None = None,
    ) -> ScanResult:
        """Execute the sharded scan; same contract as the solo engine."""
        if self.policy is None:
            self.policy = resolve_compaction(self._compaction, graph=graph)
        n_vertices = self.factor.n_vertices
        nominal = scan_steps(n_vertices)
        n_steps = nominal if steps is None else max(0, min(int(steps), nominal))
        label = operator_label(operator)

        q = self._q0.copy()
        payload = {
            name: np.array(arr, copy=True)
            for name, arr in operator.init(self.factor, graph).items()
        }
        names = tuple(payload)

        with trace_span(
            "bidirectional-scan",
            category="stage",
            operator=label,
            steps=n_steps,
            total_lanes=2 * n_vertices,
            compaction=self.policy.name,
            devices=len(self.group),
        ) as stage:
            launches, active_history, decisions = self._run_steps(
                operator, q, payload, names, n_steps, label
            )
            if stage is not None:
                stage.attributes.update(
                    launches=launches, converged=bool((q < 0).all())
                )

        return ScanResult(
            q=q,
            payload=payload,
            steps=n_steps,
            launches=launches,
            active_per_launch=tuple(active_history),
            compaction_decisions=tuple(decisions),
        )

    def _run_steps(self, operator, q, payload, names, n_steps, label):
        ids = self._ids
        group = self.group
        partition = self.partition
        launches = 0
        active_history: list[int] = []
        decisions: list[CompactionDecision] = []
        shards = [(s, lo, hi) for s, lo, hi in partition if hi > lo]
        cand = {s: [ids[lo:hi], ids[lo:hi]] for s, lo, hi in shards}
        # one remote far tuple = the q pair + every payload field pair
        tuple_bytes = 2 * q.dtype.itemsize + sum(
            2 * payload[name].dtype.itemsize for name in names
        )

        for step in range(n_steps):
            work = []
            n_active_total = 0
            for s, lo, hi in shards:
                c0, c1 = cand[s]
                alive0 = q[c0, 0] >= 0
                alive1 = q[c1, 1] >= 0
                idx = (c0[alive0], c1[alive1])
                n_active = int(idx[0].size + idx[1].size)
                n_active_total += n_active
                work.append((s, lo, hi, c0, c1, alive0, alive1, idx, n_active))
            if n_active_total == 0:
                break  # every lane of every shard is a path end

            with ExitStack() as stack:
                handles = {}
                for s, lo, hi, c0, c1, alive0, alive1, idx, n_active in work:
                    if n_active == 0:
                        continue  # this shard has converged; peers continue
                    n_dead = int(c0.size + c1.size) - n_active
                    decision = None
                    dead_reads = ()
                    if n_dead:
                        decision = self.policy.decide(
                            FrontierState(
                                live=n_active,
                                dead=n_dead,
                                gather_element_bytes=CAND_GATHER_BYTES,
                                dead_element_bytes=CAND_DEAD_BYTES,
                                rounds_remaining=n_steps - step,
                            )
                        )
                        decisions.append(decision)
                        if decision.compact:
                            cand[s] = [idx[0], idx[1]]
                        else:
                            dead_reads = (
                                c0[~alive0],
                                q[c0[~alive0], 0],
                                c1[~alive1],
                                q[c1[~alive1], 1],
                            )
                    active_history.append(n_active)
                    kl = stack.enter_context(
                        group[s].launch(
                            f"bidirectional-scan[{label}|step={step}]",
                            active_lanes=n_active,
                            total_lanes=2 * (hi - lo),
                        )
                    )
                    if decision is not None:
                        record_decision(decision, engine="scan", launch=kl)
                        if not decision.compact:
                            kl.reads(*dead_reads)
                    handles[s] = kl
                    launches += 1

                # Gather phase across ALL shards: snapshot every active
                # lane's far tuple (pulling remote tuples over the
                # interconnect) before any shard writes — the multi-device
                # ping-pong barrier.
                gathered = {}
                for s, lo, hi, c0, c1, alive0, alive1, idx, n_active in work:
                    if n_active == 0:
                        continue
                    kl = handles[s]
                    packs = []
                    for lane in (0, 1):
                        sel = idx[lane]
                        if sel.size == 0:
                            packs.append(None)
                            continue
                        far = q[sel, lane]
                        far_q = q[far]
                        far_p = {name: payload[name][far] for name in names}
                        kl.reads(sel, far, far_q, *far_p.values())
                        remote = far[(far < lo) | (far >= hi)]
                        _halo(group, partition, s, remote, tuple_bytes, "halo.scan")
                        packs.append((sel, far_q, far_p))
                    gathered[s] = packs

                # Scatter phase: each shard writes only its own rows/lanes.
                for s, lo, hi, c0, c1, alive0, alive1, idx, n_active in work:
                    if n_active == 0:
                        continue
                    kl = handles[s]
                    for lane, pack in ((0, gathered[s][0]), (1, gathered[s][1])):
                        if pack is None:
                            continue
                        sel, far_q, far_p = pack
                        for j in (0, 1):
                            extend = far_q[:, j] != ids[sel]
                            sub = sel[extend]
                            if sub.size == 0:
                                continue
                            current = {
                                name: payload[name][sub, lane] for name in names
                            }
                            kl.reads(*current.values())
                            contribution = {
                                name: far_p[name][extend, j] for name in far_p
                            }
                            merged = operator.combine(current, contribution)
                            for name in names:
                                payload[name][sub, lane] = merged[name]
                                kl.writes(merged[name])
                            new_q = far_q[extend, j]
                            q[sub, lane] = new_q
                            kl.writes(new_q)

        return launches, active_history, decisions


# -- sharded band extraction -----------------------------------------------


def _sharded_extract_tridiagonal(
    a: CSRMatrix,
    forest: Factor,
    perm: np.ndarray,
    partition: VertexPartition,
    group: DeviceGroup,
) -> TridiagonalSystem:
    """Band extraction sharded by matrix row; values whose permuted position
    lands in another shard's band range ship over the interconnect
    (``halo.bands``)."""
    n = check_square(a.shape)
    new_index = inverse_permutation(perm)
    band_dtype = a.data.dtype
    dl = np.zeros(n, dtype=band_dtype)
    du = np.zeros(n, dtype=band_dtype)
    d = np.zeros(n, dtype=band_dtype)
    coo = a.to_coo()
    value_msg_bytes = int(np.dtype(band_dtype).itemsize) + 8  # value + position
    with trace_span(
        "extract-tridiagonal",
        category="stage",
        n=n,
        nnz=a.nnz,
        dtype=str(band_dtype),
        devices=len(group),
    ):
        for s, lo, hi in partition:
            if lo == hi:
                continue
            e0 = int(np.searchsorted(coo.row, lo, side="left"))
            e1 = int(np.searchsorted(coo.row, hi, side="left"))
            if e0 == e1:
                continue
            rows = coo.row[e0:e1]
            cols = coo.col[e0:e1]
            vals = coo.val[e0:e1]
            with group[s].launch(
                "extract-coefficients",
                reads=(rows, cols, vals),
                writes=(dl[lo:hi], du[lo:hi]),
            ):
                on_diag = rows == cols
                p_diag = new_index[rows[on_diag]]
                d[p_diag] = vals[on_diag]
                off = ~on_diag
                r2 = rows[off]
                c2 = cols[off]
                v2 = vals[off]
                in_forest = forest.contains_edges(r2, c2)
                r2, c2, v2 = r2[in_forest], c2[in_forest], v2[in_forest]
                p_row = new_index[r2]
                p_col = new_index[c2]
                sub = p_col == p_row - 1
                sup = p_col == p_row + 1
                dl[p_row[sub]] = v2[sub]
                du[p_row[sup]] = v2[sup]
                written = np.concatenate([p_diag, p_row[sub], p_row[sup]])
                remote = written[(written < lo) | (written >= hi)]
                _halo(
                    group, partition, s, remote, value_msg_bytes,
                    "halo.bands", push=True,
                )
    return TridiagonalSystem(dl=dl, d=d, du=du)


# -- the sharded pipeline --------------------------------------------------


def _check_layout(
    partition: VertexPartition, group: DeviceGroup, n_vertices: int
) -> None:
    if partition.n_shards != len(group):
        raise ConfigError(
            f"partition has {partition.n_shards} shards for a "
            f"{len(group)}-device group"
        )
    if partition.n_vertices != n_vertices:
        raise ShapeError(
            f"partition covers {partition.n_vertices} vertices, graph has {n_vertices}"
        )


def extract_linear_forest_sharded(
    a: CSRMatrix,
    config: ParallelFactorConfig | None = None,
    *,
    group: DeviceGroup | None = None,
    devices: int | None = None,
    partition: VertexPartition | None = None,
    merged_scan: bool = True,
    compaction=None,
    prepared_graph: CSRMatrix | None = None,
    charge_ids: np.ndarray | None = None,
) -> LinearForestResult:
    """The full pipeline across a device group, bit-identical to
    :func:`repro.core.pipeline.extract_linear_forest` on one device.

    Pass either an existing ``group`` (whose interconnect then carries the
    halo bytes for inspection) or a ``devices`` count (a non-recording group
    is created internally).  ``partition`` defaults to the uniform 1-D
    block partition.  All remaining parameters have the single-device
    pipeline's semantics.
    """
    config = config or ParallelFactorConfig(n=2)
    if config.n != 2:
        raise ValueError(f"linear-forest extraction requires n=2, got n={config.n}")
    if group is None:
        n_dev = resolve_devices(devices)
        if n_dev is None:
            n_dev = 1
        group = DeviceGroup(n_dev, record=False)
    elif devices is not None and int(devices) != len(group):
        raise ConfigError(
            f"devices={devices} does not match the {len(group)}-device group"
        )
    timings = TimingBreakdown()
    metrics = current_metrics()
    halo_before = group.interconnect.total_bytes()

    with trace_span(
        "extract-linear-forest",
        category="run",
        n_vertices=a.n_rows,
        nnz=a.nnz,
        merged_scan=merged_scan,
        dtype=str(a.data.dtype),
        devices=len(group),
    ) as root:
        with timings.phase(PHASE_FACTOR):
            graph = prepared_graph if prepared_graph is not None else prepare_graph(a)
            partition = partition or VertexPartition.uniform(graph.n_rows, len(group))
            _check_layout(partition, group, graph.n_rows)
            policy = resolve_compaction(compaction, graph=graph)
            if root is not None:
                root.attributes["compaction"] = policy.name
            if metrics is not None:
                metrics.counter("shard.runs").inc()
                metrics.gauge("shard.devices").set(len(group))
            factor_result = sharded_parallel_factor(
                graph, config, group=group, partition=partition,
                compaction=policy, charge_ids=charge_ids,
            )

        with timings.phase(PHASE_SCANS):
            if merged_scan:
                scan = ShardedScan(
                    factor_result.factor, partition, group, compaction=policy
                )
                fused = scan.run(FusedOperator((MinEdgeOperator(), AddOperator())), graph)
                broken = break_cycles(factor_result.factor, scan_result=fused)
                if broken.n_cycles == 0:
                    paths = paths_from_scan(fused)
                else:
                    rescans = ShardedScan(
                        broken.forest, partition, group, compaction=policy
                    )
                    paths = paths_from_scan(rescans.run(AddOperator()))
            else:
                cyc = ShardedScan(
                    factor_result.factor, partition, group, compaction=policy
                )
                broken = break_cycles(
                    factor_result.factor, scan_result=cyc.run(MinEdgeOperator(), graph)
                )
                pos = ShardedScan(broken.forest, partition, group, compaction=policy)
                paths = paths_from_scan(pos.run(AddOperator()))
            perm = forest_permutation(paths)

        with timings.phase(PHASE_EXTRACT):
            tridiagonal = _sharded_extract_tridiagonal(
                a, broken.forest, perm, partition, group
            )

        cov = coverage_of(a, broken.forest)
        halo_bytes = group.interconnect.total_bytes() - halo_before
        if metrics is not None:
            metrics.counter("shard.halo.bytes").inc(halo_bytes)
        if root is not None:
            root.attributes.update(
                coverage=cov,
                n_cycles=broken.n_cycles,
                n_paths=paths.n_paths,
                factor_iterations=factor_result.iterations,
                interconnect_bytes=halo_bytes,
            )

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
