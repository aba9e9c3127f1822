"""Parallel [0,n]-factor computation — Algorithm 2 of the paper.

Each iteration ``k`` runs three kernel launches:

1. **charge** — assign every vertex a ± charge (skipped when
   ``k mod m == k_m``, the un-charged rounds that also host the maximality
   check).
2. **propose** — every vertex proposes up to ``n - |π(v)|`` additional edges,
   choosing its strongest eligible neighbours.  Eligible are neighbours that
   are not already full (|π'(w)| = n), not already confirmed partners, and —
   on charged rounds — of opposite charge.  This is the generalized SpMV of
   Section 4.1: the ⊗ functor computes eligibility-masked |weights| (with the
   indirect lookup into the confirmed-edges vector ``x``), the ⊕ reduction is
   the top-n accumulator of Table 1 (:func:`repro.sparse.topn.top_n_per_row`).
3. **mutualize** — keep only mutually proposed edges (Alg. 2 line 27); the
   survivors join the confirmed set.

If an un-charged round proposes nothing, the factor is maximal and the
algorithm returns ``M_max = k + 1`` (Alg. 2 lines 23-24).

:func:`parallel_factor` drives the rounds through the convergence-aware
:class:`~repro.core.proposer.PropositionEngine` (a documented deviation from
the paper, which re-masks every nonzero each round): the active edge
frontier shrinks monotonically as vertices saturate and pairs confirm, each
``propose``/``mutualize`` launch reports its frontier occupancy to the
device, and rounds whose frontier is empty never launch at all.  Results
are bit-identical to :func:`propose_edges`, the property-tested reference;
the paper-exact full-nnz round survives in :mod:`repro.core.ablations`.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass, field

import numpy as np

from .._validation import INDEX_DTYPE, require
from ..device.device import Device, DeviceGroup
from ..obs import trace_span
from ..errors import FactorError, ShapeError
from ..sparse.csr import CSRMatrix
from ..sparse.topn import top_n_per_row, validate_proposition_weights
from .charge import vertex_charges
from .coverage import coverage as coverage_of
from .frontier import resolve_compaction
from .partition import Placement, VertexPartition, group_attrs
from .proposer import PropositionEngine
from .structures import NO_PARTNER, Factor, is_partner, slot_degrees

__all__ = [
    "ParallelFactorConfig",
    "ParallelFactorResult",
    "parallel_factor",
    "propose_edges",
]

#: Interconnect bytes per remote vertex whose degree a proposing shard pulls
#: (a remote proposal row costs ``n`` of these words).
_DEGREE_HALO_BYTES = 8
#: Interconnect bytes per remote vertex whose charge flag is pulled.
_CHARGE_HALO_BYTES = 1


@dataclass(frozen=True)
class ParallelFactorConfig:
    """Parameters of Algorithm 2.

    Attributes
    ----------
    n:
        Degree bound of the factor (the paper evaluates n = 1..4).
    max_iterations:
        ``M`` — the upper limit on proposition rounds.  The paper's default
        configuration is ``M = 5``.
    m, k_m:
        Charging schedule: charging is *disabled* on iterations with
        ``k mod m == k_m``.  ``(m, k_m) = (1, 0)`` disables charging entirely;
        the paper's default is ``(5, 0)``.
    p:
        Probability of a positive charge (paper: 0.5).
    seed:
        Extra entropy fed into the charge hash.
    """

    n: int = 2
    max_iterations: int = 5
    m: int = 5
    k_m: int = 0
    p: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        require(self.n >= 1, f"n must be >= 1, got {self.n}", ShapeError)
        require(self.max_iterations >= 1, "max_iterations must be >= 1", ShapeError)
        require(self.m >= 1, f"m must be >= 1, got {self.m}", ShapeError)
        require(0 <= self.k_m < self.m, f"k_m must be in [0, m), got {self.k_m}", ShapeError)
        require(0.0 <= self.p <= 1.0, f"p must be in [0, 1], got {self.p}", ShapeError)

    def charging_enabled(self, k: int) -> bool:
        """Whether vertex charging is active on iteration ``k``."""
        return k % self.m != self.k_m


@dataclass
class ParallelFactorResult:
    """Outcome of :func:`parallel_factor`."""

    factor: Factor
    iterations: int
    m_max: int | None
    converged: bool
    coverage_history: list[float] = field(default_factory=list)
    proposals_per_iteration: list[int] = field(default_factory=list)
    #: Active-edge frontier size at the start of each round (one entry per
    #: executed iteration) — the convergence curve of the proposition engine.
    frontier_history: list[int] = field(default_factory=list)
    #: Per-round verdicts of the engine's compaction policy (see
    #: :mod:`repro.core.frontier`); empty for the reference loop.
    compaction_decisions: list = field(default_factory=list)
    #: Elements written by the engine's physical compaction gathers — the
    #: factor-phase gather traffic the lazy policies amortize away.
    gathered_elements: int = 0

    @property
    def coverage(self) -> float | None:
        """Final coverage, when history tracking was enabled."""
        return self.coverage_history[-1] if self.coverage_history else None

    @property
    def final_frontier_fraction(self) -> float | None:
        """Last frontier size over the initial one, or ``None`` untracked."""
        if not self.frontier_history:
            return None
        total = self.frontier_history[0]
        if total <= 0:
            return 0.0
        return self.frontier_history[-1] / total


def propose_edges(
    graph: CSRMatrix,
    confirmed: np.ndarray,
    n: int,
    *,
    charges: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One edge-proposition kernel launch (Alg. 2 lines 14-22).

    Parameters
    ----------
    graph:
        The prepared (symmetric, non-negative, zero-diagonal) adjacency A'.
    confirmed:
        ``(N, n)`` confirmed-partner array π' (``-1`` padded) — the indirect
        lookup vector ``x`` of the generalized SpMV.
    charges:
        Per-vertex charges for this round, or ``None`` on un-charged rounds.

    Returns ``(prop_cols, prop_vals, prop_counts)`` — the per-vertex proposal
    slots, their weights (written when ``n == 2`` for the later cycle scan,
    see Table 2; here always returned) and the number of proposals per vertex.
    """
    n_vertices = graph.n_rows
    if confirmed.shape != (n_vertices, n):
        raise ShapeError(f"confirmed must have shape {(n_vertices, n)}")
    validate_proposition_weights(graph.data)
    rows_nnz = graph.nnz_rows
    cols = graph.indices
    degree = (confirmed != NO_PARTNER).sum(axis=1).astype(INDEX_DTYPE)
    eligible = degree[cols] < n
    eligible &= cols != rows_nnz
    if charges is not None:
        eligible &= charges[rows_nnz] != charges[cols]
    # exclude neighbours that are already confirmed partners of the row
    eligible &= ~(confirmed[rows_nnz] == cols[:, None]).any(axis=1)
    capacity = n - degree
    return top_n_per_row(
        graph.indptr,
        cols,
        graph.data,
        n,
        eligible=eligible,
        capacity=capacity,
    )


def _confirm_mutual(
    confirmed: np.ndarray,
    degree: np.ndarray,
    prop_cols: np.ndarray,
    lo: int = 0,
    hi: int | None = None,
) -> int:
    """Keep mutually proposed edges (Alg. 2 line 27) of the proposing rows
    ``[lo, hi)`` (default: all rows); returns #new entries.

    The proposal slots are confirmed in order, one contiguous slot column at
    a time, and a per-row fill counter (starting at ``degree``) places each
    new partner: its slot is its occurrence rank among its row's confirms,
    so the rows of a range are written exactly as a whole-graph call writes
    them.
    """
    hi = prop_cols.shape[0] if hi is None else hi
    columns = np.ascontiguousarray(prop_cols.T)
    fill = np.array(degree[lo:hi], dtype=INDEX_DTYPE)
    added = 0
    for column in columns:
        local = column[lo:hi]
        v = np.flatnonzero(local != NO_PARTNER)
        w = local[v]
        mutual = np.flatnonzero(is_partner(columns, w, v + lo))
        v, w = v.take(mutual), w.take(mutual)
        confirmed[v + lo, fill[v]] = w
        fill[v] += 1
        added += int(v.size)
    return added


def parallel_factor(
    graph: CSRMatrix,
    config: ParallelFactorConfig | None = None,
    *,
    device: Device | DeviceGroup | None = None,
    partition: VertexPartition | None = None,
    coverage_matrix: CSRMatrix | None = None,
    compaction=None,
    charge_ids: np.ndarray | None = None,
) -> ParallelFactorResult:
    """Run Algorithm 2 on a prepared graph.

    Parameters
    ----------
    graph:
        Output of :func:`repro.sparse.build.prepare_graph` — symmetric,
        non-negative weights, empty diagonal.  The engines check the weights
        of a plain :class:`~repro.sparse.csr.CSRMatrix`, not of a
        :class:`~repro.sparse.build.PreparedGraph`, whose constructor did.
    config:
        Algorithm parameters; defaults to the paper's default configuration
        (n = 2, M = 5, m = 5, k_m = 0, p = 0.5).
    device:
        Device used for kernel-launch accounting.  A
        :class:`~repro.device.device.DeviceGroup` shards the rounds over a
        1-D vertex partition: every kernel launches once per non-empty
        shard on that shard's device, and reads of remote degrees, charges
        and proposal rows are metered on the group's interconnect.  The
        factor is bit-identical for every device count.
    partition:
        The :class:`~repro.core.partition.VertexPartition` of a group run
        (default: uniform over the group's devices).
    coverage_matrix:
        When given, the coverage history c_π(k) is tracked against this
        (original) matrix after every iteration — this is how Table 4 reports
        c_π(5) and c_π(M_max) per configuration.
    compaction:
        Frontier-compaction policy of the proposition engine — a
        :class:`~repro.core.frontier.CompactionPolicy`, a spec string
        (``"eager"``, ``"never"``, ``"lazy[:threshold]"``, ``"adaptive"``,
        or ``"auto"`` — the :mod:`repro.tune` cache lookup keyed by the
        graph's fingerprint), or ``None`` to honour ``REPRO_COMPACTION``
        (default eager).  The factor is bit-identical under every policy;
        only traffic differs.  Each shard consults the policy against its
        own frontier.
    charge_ids:
        Identity array fed to the charge hash instead of the global vertex
        ids (see :func:`repro.core.charge.vertex_charges`).  The batch
        engine passes member-local ids so a packed graph charges exactly
        like its members would solo.
    """
    config = config or ParallelFactorConfig()
    n_vertices = graph.n_rows
    n = config.n
    if graph.n_rows != graph.n_cols:
        raise ShapeError("graph adjacency must be square")
    # every shard's PropositionEngine validates its rows' weights, and the
    # shards cover every row
    placement = Placement(device, n_vertices, partition)
    # one concrete policy for every shard ("auto" fingerprints the graph once)
    policy = resolve_compaction(compaction, graph=graph)

    confirmed = np.full((n_vertices, n), NO_PARTNER, dtype=INDEX_DTYPE)
    coverage_history: list[float] = []
    proposals_history: list[int] = []
    frontier_history: list[int] = []
    m_max: int | None = None
    converged = False
    iterations = 0

    # the proposition's sort key depends only on the graph: hoist it out of
    # the rounds, and keep only the still-active edge frontier in play
    # (see repro.core.proposer for the frontier invariant); one engine per
    # shard, each owning its rows' frontier
    engines = [
        (s, dev, PropositionEngine(graph, n, compaction=policy, rows=(lo, hi)))
        for s, dev, lo, hi in placement.shards
    ]

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
        **group_attrs(device),
    ) as stage:
        for k in range(config.max_iterations):
            charging = config.charging_enabled(k)
            frontier = sum(engine.frontier_size for _, _, engine in engines)
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
                    # Every edge retired: no round can ever propose again.  The
                    # outcome of the paper's launches is fully known, so none fire.
                    proposals_history.append(0)
                    if round_span is not None:
                        round_span.attributes["proposals"] = 0
                    if not charging:
                        # |π(V)| = |π'(V)| on an un-charged round: maximal factor
                        m_max = k + 1
                        converged = True
                        _track_coverage()
                        break
                    _track_coverage()
                    continue

                charges = None
                if charging:
                    charges = np.empty(n_vertices, dtype=bool)
                    for _, dev, engine in engines:
                        lo, hi = engine.lo, engine.hi
                        with dev.launch(f"charge[k={k}]"):
                            charges[lo:hi] = vertex_charges(
                                hi - lo, k, p=config.p, seed=config.seed,
                                ids=(
                                    charge_ids[lo:hi]
                                    if charge_ids is not None
                                    else np.arange(lo, hi, dtype=np.uint32)
                                ),
                            )

                parts = []
                total_proposals = 0
                for s, dev, engine in engines:
                    if engine.frontier_size == 0:
                        # a converged shard never launches
                        parts.append(
                            np.full((engine.hi - engine.lo, n), NO_PARTNER, dtype=INDEX_DTYPE)
                        )
                        continue
                    placement.halo(s, engine.live_cols, _DEGREE_HALO_BYTES, "halo.degree")
                    if charging:
                        placement.halo(
                            s, engine.live_cols, _CHARGE_HALO_BYTES, "halo.charges"
                        )
                    with dev.launch(f"propose[k={k}]") as kl:
                        local_cols, _prop_vals, counts = engine.propose(
                            confirmed, charges=charges, launch=kl
                        )
                    parts.append(local_cols)
                    total_proposals += int(counts.sum())
                prop_cols = parts[0] if len(parts) == 1 else np.concatenate(parts)
                proposals_history.append(total_proposals)
                if round_span is not None:
                    round_span.attributes["proposals"] = total_proposals

                if total_proposals == 0:
                    if not charging:
                        # |π(V)| = |π'(V)| on an un-charged round: maximal factor
                        m_max = k + 1
                        converged = True
                        _track_coverage()
                        break
                    # charge starvation: nothing to mutualize, the factor (and
                    # therefore the frontier) is unchanged — skip both launches
                    _track_coverage()
                    continue

                # Mutualize: every shard confirms against the frozen proposal
                # array (concurrent launches, like a scan step) before any
                # shard re-derives its frontier from the updated factor — a
                # boundary edge whose far endpoint just saturated must retire
                # this round, exactly as on one device.
                degree = slot_degrees(confirmed)
                n_new = 0
                with ExitStack() as stack:
                    launched = []
                    for s, dev, engine in engines:
                        local = prop_cols[engine.lo : engine.hi]
                        if engine.frontier_size == 0 and not (local != NO_PARTNER).any():
                            continue
                        placement.halo(
                            s, lambda: local[local != NO_PARTNER],
                            n * _DEGREE_HALO_BYTES, "halo.props",
                        )
                        kl = stack.enter_context(
                            dev.launch(
                                f"mutualize[k={k}]",
                                reads=(local,),
                                writes=(confirmed[engine.lo : engine.hi],),
                            )
                        )
                        launched.append((engine, kl))
                    for engine, _ in launched:
                        n_new += _confirm_mutual(
                            confirmed, degree, prop_cols, engine.lo, engine.hi
                        )
                    for engine, kl in launched:
                        if n_new:
                            engine.compact(
                                confirmed,
                                launch=kl,
                                rounds_remaining=config.max_iterations - (k + 1),
                            )
                        kl.telemetry(
                            active_lanes=engine.frontier_size,
                            total_lanes=engine.total_edges,
                        )
                if round_span is not None:
                    round_span.attributes["confirmed_new"] = n_new

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
        compaction_decisions=[d for _, _, engine in engines for d in engine.decisions],
        gathered_elements=sum(engine.gathered_elements for _, _, engine in engines),
    )
