"""Convergence-aware edge proposition — the Algorithm 2 analogue of the
scan engine.

Two layers of amortization live here, both observationally pure:

* :class:`PreparedProposer` hoists the round-invariant ``(row, -value,
  position)`` sort out of Algorithm 2's iteration (profiling shows the
  global ``lexsort`` inside :func:`repro.sparse.topn.top_n_per_row`
  dominates a round); per round only the eligibility mask and a segmented
  cumulative count remain — but still over the *full* nonzero array.
* :class:`PropositionEngine` adds the frontier compaction that mirrors the
  convergence-aware :class:`~repro.core.scan.BidirectionalScan`: most
  eligibility conditions of Algorithm 2 are *monotone* — once they fail for
  an edge they fail forever — so the engine maintains the **active edge
  frontier** incrementally across rounds and recomputes only the one
  transient condition (charge parity) per round.

The frontier invariant (the deviation-from-paper argument, cf. DESIGN.md):
an edge ``(v, w)`` of the prepared graph leaves the frontier permanently as
soon as

* ``v`` is saturated (``|π'(v)| = n``) — degrees never decrease, so the
  edge can never be proposed by ``v`` again (capacity stays 0);
* ``w`` is saturated — ``w`` is never an eligible target again;
* the pair is already confirmed — confirmed partners are never dropped; or
* ``v == w`` — self loops are never eligible.

Only the charge test ``charge(v) != charge(w)`` changes from round to
round, so it is the only mask the per-round kernel computes.  Because every
removed edge is *ineligible* under Algorithm 2's full mask, the rank of the
surviving eligible entries inside their row segment is unchanged, and the
compacted proposal is bit-identical to
:func:`repro.core.factor.propose_edges` — the property-tested reference
(a paper-exact full-nnz round is preserved in
:mod:`repro.core.ablations` as the traffic baseline).

Compaction is gather-then-scatter on the pre-sorted arrays: the keep-mask
gathers the surviving ``(row, col, value)`` triples into fresh compact
buffers, preserving the sorted order (and therefore the Table 1
tie-breaking) exactly.

*When* that gather fires is a policy, not a rule: the engine consults a
:class:`~repro.core.frontier.CompactionPolicy` each round and may instead
carry the dead entries in place, masked out by a boolean *live mask*.
Because a dead entry is ineligible under Algorithm 2's full mask anyway,
masking instead of gathering leaves every per-row eligible rank unchanged —
the proposals stay bit-identical across policies; only the traffic moves
(dead lanes streamed per round vs. a one-off gather).

Host layout.  No kernel reduces along the short slot axis of an ``(N, n)``
array or gathers its rows: degrees are counted one slot column at a time
(:func:`~repro.core.structures.slot_degrees`), the confirmed-pair test takes
from contiguous slot columns (:func:`~repro.core.structures.is_partner`),
and proposals land through flat ``row·n + rank`` indices.
:meth:`PropositionEngine.propose` reads the degrees the last
:meth:`~PropositionEngine.compact` counted.  ``compact`` re-tests the
confirmed-pair condition only on entries whose row's degree rose since its
previous call, because a pair confirms only in a round where its row gains a
partner: the pair test's work follows the change, not the frontier.  None
of this touches the meter: a launch declares the reads and writes of the
device kernel, not of its host stand-in.
"""

from __future__ import annotations

import numpy as np

from .._validation import INDEX_DTYPE, VALUE_DTYPE
from ..device.device import KernelLaunch
from ..errors import FactorError, ShapeError
from ..sparse.build import PreparedGraph
from ..sparse.csr import CSRMatrix
from ..sparse.topn import validate_proposition_weights
from .frontier import (
    CompactionDecision,
    CompactionPolicy,
    FrontierState,
    record_decision,
    resolve_compaction,
)
from .structures import NO_PARTNER, is_partner, slot_degrees

__all__ = ["PreparedProposer", "PropositionEngine", "csr_proposal_order", "proposal_order"]

#: Bytes per frontier entry moved by a compaction gather: the
#: ``(row, col, value)`` triple (int64 + int64 + float64).
GATHER_ELEMENT_BYTES = 24
#: Bytes one retained dead entry costs each uncompacted round: its row and
#: col ids are streamed (and skipped) plus its live-mask byte.
DEAD_ELEMENT_BYTES = 17
#: :func:`csr_proposal_order` pads the rows only while the padded array
#: holds at most this many slots per nonzero, so a hub row never allocates
#: ``rows · d_max``.
PADDED_MAX_FILL = 4


def proposal_order(rows: np.ndarray, data: np.ndarray) -> np.ndarray:
    """The Table 1 order of the nonzeros: row ascending, value descending,
    array position ascending — equal to
    ``np.lexsort((position, -data, rows))``.

    This is the global form, for rows in any order; the engines order CSR
    rows with :func:`csr_proposal_order`, which sorts each row on its own.
    One stable argsort of the integer key ``row · n_distinct + rank`` replaces
    the three-key sort, where ``rank`` is the descending rank of the value
    among the distinct values (equal values, ``-0.0`` and ``0.0`` among them,
    share a rank, so stability keeps their position order).  Keys that would
    overflow int64 fall back to the lexsort.
    """
    rows = np.asarray(rows, dtype=INDEX_DTYPE)
    data = np.asarray(data)
    if rows.size == 0:
        return np.empty(0, dtype=INDEX_DTYPE)
    distinct, rank = np.unique(-data, return_inverse=True)
    if int(rows.max()) >= np.iinfo(INDEX_DTYPE).max // distinct.size:
        position = np.arange(rows.size, dtype=INDEX_DTYPE)
        return np.lexsort((position, -data, rows))
    return np.argsort(rows * distinct.size + rank, kind="stable")


def csr_proposal_order(graph: CSRMatrix, lo: int, hi: int) -> np.ndarray:
    """:func:`proposal_order` of the nonzeros of rows ``[lo, hi)``, counted
    from the range's first nonzero, sorted row by row.

    Row is the primary key and CSR rows are contiguous, so each row can be
    sorted on its own.  Every row is padded to the longest one's ``d_max``
    entries and one stable ``np.argsort(axis=1)`` sorts the keys ``-value``
    of all rows at once; mapping the slots back through ``indptr`` drops the
    pads.  The pads are NaN, which sorts after every key, so stability keeps
    each row's own entries ahead of them.  When the padding would exceed
    :data:`PADDED_MAX_FILL` slots per nonzero (a hub row), the global
    :func:`proposal_order` runs instead.
    """
    indptr = graph.indptr[lo : hi + 1]
    s0, s1 = int(indptr[0]), int(indptr[-1])
    counts = np.diff(indptr)
    d_max = int(counts.max()) if counts.size else 0
    if counts.size * d_max > PADDED_MAX_FILL * (s1 - s0):
        return proposal_order(graph.nnz_rows[s0:s1], graph.data[s0:s1])
    # own[r, k]: slot k of row r holds one of the row's entries
    own = np.arange(d_max) < counts[:, None]
    keys = np.full(own.shape, np.nan, dtype=graph.data.dtype)
    keys[own] = -graph.data[s0:s1]
    slots = np.argsort(keys, axis=1, kind="stable")
    slots += (indptr[:-1] - s0)[:, None]
    return slots[own]


def _select_proposals(
    rows_local: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    eligible: np.ndarray,
    row_starts: np.ndarray,
    capacity: np.ndarray,
    n: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The top-``capacity`` eligible entries of each row, in the ``(rows, n)``
    proposal slots.

    The entries are in the Table 1 order, so a row's ``r``-th eligible entry
    is its ``r``-th proposal.  ``rows_local`` numbers the rows from 0,
    ``row_starts`` and ``capacity`` have one entry per row.  Returns the
    proposal columns, values and per-row counts.
    """
    n_rows = capacity.size
    # seen[p]: eligible entries before position p.  An entry is proposed
    # when fewer than `capacity` eligible entries of its row precede it,
    # i.e. seen[p] < seen[row start] + capacity.
    seen = np.empty(rows_local.size + 1, dtype=INDEX_DTYPE)
    seen[0] = 0
    np.cumsum(eligible, out=seen[1:])
    first = seen[row_starts]
    sel = np.flatnonzero(eligible & (seen[:-1] < (first + capacity)[rows_local]))
    sel_rows = rows_local[sel]
    rank = seen[sel] - first[sel_rows]
    counts = np.bincount(sel_rows, minlength=n_rows).astype(INDEX_DTYPE)
    # the selected entries land through their flat row·n + rank index
    flat = sel_rows * n + rank
    prop_cols = np.full(n_rows * n, NO_PARTNER, dtype=INDEX_DTYPE)
    prop_cols[flat] = cols[sel]
    prop_vals = np.zeros(n_rows * n, dtype=VALUE_DTYPE)
    prop_vals[flat] = vals[sel]
    return prop_cols.reshape(n_rows, n), prop_vals.reshape(n_rows, n), counts


class PreparedProposer:
    """Pre-sorted proposition kernel for repeated rounds on one graph.

    Stateless across rounds (the full nonzero array is re-masked every
    call); :class:`PropositionEngine` is the stateful frontier-compacted
    variant used by :func:`repro.core.factor.parallel_factor`.
    """

    def __init__(self, graph: CSRMatrix):
        validate_proposition_weights(graph.data)
        self.graph = graph
        rows = graph.nnz_rows
        order = csr_proposal_order(graph, 0, graph.n_rows)
        self._rows = rows[order]
        self._cols = graph.indices[order]
        self._vals = np.asarray(graph.data, dtype=VALUE_DTYPE)[order]
        # segment extents are unchanged (row is the primary sort key)
        self._row_starts = graph.indptr[:-1]
        self._n_vertices = graph.n_rows

    def propose(
        self,
        confirmed: np.ndarray,
        n: int,
        *,
        charges: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One proposition round; same contract as ``propose_edges``."""
        n_vertices = self._n_vertices
        if confirmed.shape != (n_vertices, n):
            raise ShapeError(f"confirmed must have shape {(n_vertices, n)}")
        rows, cols, vals = self._rows, self._cols, self._vals
        degree = (confirmed != NO_PARTNER).sum(axis=1).astype(INDEX_DTYPE)

        eligible = degree[cols] < n
        eligible &= cols != rows
        if charges is not None:
            eligible &= charges[rows] != charges[cols]
        eligible &= ~(confirmed[rows] == cols[:, None]).any(axis=1)

        return _select_proposals(
            rows, cols, vals, eligible, self._row_starts, n - degree, n
        )


class PropositionEngine:
    """Frontier-compacted proposition rounds for Algorithm 2.

    The engine owns compacted copies of the pre-sorted nonzero arrays (the
    *frontier*).  Per round:

    * :meth:`propose` evaluates only the charge mask over the frontier and
      selects the top-``capacity`` eligible entries per row — bit-identical
      to :func:`repro.core.factor.propose_edges` as long as the frontier is
      in sync with ``confirmed`` (see :meth:`compact`);
    * :meth:`compact` (called after the mutualize step) gathers the
      still-live edges into fresh compact buffers, permanently retiring
      edges with a saturated endpoint or a confirmed pair.

    The contract between the two: ``propose(confirmed, ...)`` requires that
    the last ``compact(confirmed)`` saw the same ``confirmed`` array —
    exactly the discipline of Algorithm 2's round loop, where the factor
    only changes in the mutualize step.  A fresh engine is in sync with any
    all-empty ``confirmed``.

    Whether :meth:`compact` *physically* gathers is delegated to a
    :class:`~repro.core.frontier.CompactionPolicy` (``compaction=``; the
    default honours ``REPRO_COMPACTION`` and falls back to eager, the
    historical compact-every-round).  Under a lazy policy dead entries stay
    in the buffers, masked by ``_live``; proposals are bit-identical either
    way because dead entries are ineligible under the full Algorithm 2 mask
    and eligibility ranks are per-row (see :mod:`repro.core.frontier`).

    ``frontier_size`` / ``total_edges`` expose the telemetry the factor
    loop threads into :meth:`repro.device.device.Device.launch`;
    ``frontier_size`` always counts *live* edges, so convergence curves and
    the factor loop's empty-frontier exit are policy-independent.

    ``rows=(lo, hi)`` restricts the engine to one contiguous row range —
    one shard of a :class:`~repro.core.partition.VertexPartition` — and
    :meth:`propose` then returns that range's rows of the proposal arrays.
    Selection is a per-row rank, so the shards' rows concatenate into the
    whole-graph result bit for bit; reads of ``confirmed`` and ``charges``
    outside the range are the halo the caller meters.
    """

    def __init__(
        self,
        graph: CSRMatrix,
        n: int,
        *,
        compaction: CompactionPolicy | str | None = None,
        rows: tuple[int, int] | None = None,
    ):
        if n < 1:
            raise ShapeError(f"n must be >= 1, got {n}")
        lo, hi = (0, graph.n_rows) if rows is None else (int(rows[0]), int(rows[1]))
        if not 0 <= lo <= hi <= graph.n_rows:
            raise ShapeError(f"rows must lie in [0, {graph.n_rows}], got {rows}")
        s0, s1 = int(graph.indptr[lo]), int(graph.indptr[hi])
        if not isinstance(graph, PreparedGraph):  # a prepared graph is checked
            validate_proposition_weights(graph.data[s0:s1])
        self.graph = graph
        self.n = int(n)
        #: The half-open row range ``[lo, hi)`` this engine proposes for.
        self.lo, self.hi = lo, hi
        # the graph enables the "auto" spec to fingerprint-match the tuning cache
        self.policy = resolve_compaction(compaction, graph=graph)
        #: Per-round compaction decisions, in :meth:`compact` call order.
        self.decisions: list[CompactionDecision] = []
        #: Elements written by the physical compaction gathers so far
        #: (3 per surviving frontier entry: row, col, value).
        self.gathered_elements = 0
        self._n_vertices = graph.n_rows
        self._total_edges = s1 - s0
        # the Table 1 order restricted to a row range is the range's own
        # order: positions shift by a constant inside contiguous rows
        rows = graph.nnz_rows[s0:s1]
        order = csr_proposal_order(graph, lo, hi)
        # row is the primary key and the rows already ascend: rows[order]
        # would be rows again
        cols = graph.indices[s0:s1][order]
        vals = np.asarray(graph.data[s0:s1], dtype=VALUE_DTYPE)[order]
        # self loops are permanently ineligible: retire them up front
        live = cols != rows
        if not bool(live.all()):
            rows, cols, vals = rows[live], cols[live], vals[live]
        self._rows = rows
        self._cols = cols
        self._vals = vals
        # live mask over the buffers; None means "clean" (everything live)
        self._live: np.ndarray | None = None
        # the rows' degrees at the last compact: a fresh engine is in sync
        # with an all-empty factor
        self._degree = np.zeros(hi - lo, dtype=INDEX_DTYPE)
        self._n_live = int(rows.size)
        self._recompute_segments()

    # -- state ---------------------------------------------------------------
    @property
    def frontier_size(self) -> int:
        """Number of directed edges still *live* (policy-independent)."""
        return self._n_live

    @property
    def total_edges(self) -> int:
        """The frontier denominator: all nonzeros of the engine's rows."""
        return self._total_edges

    def live_cols(self) -> np.ndarray:
        """Proposal-target columns of the still-live frontier entries."""
        return self._cols if self._live is None else self._cols[self._live]

    def _recompute_segments(self) -> None:
        # segments are indexed by the row's offset inside the engine's range
        n_local = self.hi - self.lo
        self._rows_local = self._rows if self.lo == 0 else self._rows - self.lo
        counts = np.bincount(self._rows_local, minlength=n_local).astype(INDEX_DTYPE)
        starts = np.zeros(n_local, dtype=INDEX_DTYPE)
        if n_local > 1:
            np.cumsum(counts[:-1], out=starts[1:])
        self._row_starts = starts

    # -- kernels -------------------------------------------------------------
    def propose(
        self,
        confirmed: np.ndarray,
        *,
        charges: np.ndarray | None = None,
        launch: KernelLaunch | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One frontier-compacted proposition round.

        Same output contract as :func:`repro.core.factor.propose_edges`,
        restricted to the engine's rows: the arrays have one row per vertex
        of ``[lo, hi)``.  Only the charge mask is recomputed: the frontier
        invariant guarantees every remaining edge has two unsaturated
        endpoints and is not yet confirmed.  The capacities come from the
        degrees :meth:`compact` counted, so ``confirmed`` must not have
        changed since the last :meth:`compact`.
        """
        n = self.n
        n_vertices = self._n_vertices
        if confirmed.shape != (n_vertices, n):
            raise ShapeError(f"confirmed must have shape {(n_vertices, n)}")
        rows, cols, vals = self._rows, self._cols, self._vals
        # the contract with compact() makes its degree snapshot current
        degree = self._degree

        # Under a deferred compaction the buffers carry dead entries; they
        # are masked ineligible here, which leaves the per-row ranks of the
        # live entries unchanged — bit-identical to the compacted round.
        if charges is None:
            eligible = (
                np.ones(rows.size, dtype=bool) if self._live is None else self._live
            )
        else:
            eligible = charges[rows] != charges[cols]
            if self._live is not None:
                eligible &= self._live
        prop_cols, prop_vals, counts = _select_proposals(
            self._rows_local, cols, vals, eligible, self._row_starts, n - degree, n
        )
        if launch is not None:
            # The pre-sorted frontier makes the selection purely rank-based:
            # the kernel never compares values, so the value array is *not*
            # streamed — only the selected weights are gathered.  Likewise
            # the frontier invariant reduces the per-vertex state to the
            # degree vector (no confirmed-pair lookups remain).  A dirty
            # buffer streams its dead rows/cols plus the live-mask byte per
            # entry — exactly the dead-lane traffic the adaptive policy
            # trades against the gather cost.
            launch.reads(rows, cols, degree, vals[: int(counts.sum())])
            if charges is not None:
                launch.reads(charges[self.lo : self.hi])
            if self._live is not None:
                launch.reads(self._live)
            launch.writes(prop_cols, prop_vals, counts)
            launch.telemetry(
                active_lanes=self.frontier_size, total_lanes=self.total_edges
            )
        return prop_cols, prop_vals, counts

    def compact(
        self,
        confirmed: np.ndarray,
        *,
        launch: KernelLaunch | None = None,
        rounds_remaining: int = 1,
    ) -> int:
        """Retire permanently ineligible edges; returns the number that died.

        Must be called whenever ``confirmed`` gained entries (after the
        mutualize step).  Monotone: the live frontier never grows.  The
        compaction policy decides whether the dead entries are *physically*
        gathered out now or carried in place under the live mask;
        ``rounds_remaining`` bounds the policy's dead-lane projection.
        """
        n = self.n
        if confirmed.shape != (self._n_vertices, n):
            raise ShapeError(f"confirmed must have shape {(self._n_vertices, n)}")
        degree = slot_degrees(confirmed)
        local_degree = degree[self.lo : self.hi]
        moved = local_degree != self._degree
        self._degree = local_degree
        rows, cols = self._rows, self._cols
        if rows.size == 0:
            return 0
        unsaturated = degree < n
        keep = unsaturated[rows] & unsaturated[cols]
        # A pair confirms only in a round where its row gains a partner, so
        # the pair test re-runs only on surviving entries whose row's degree
        # moved since the last compact; every other confirmed pair already
        # died there, and the live mask below carries that verdict.
        test = np.flatnonzero(keep & moved[self._rows_local])
        if test.size:
            slots = np.ascontiguousarray(confirmed[self.lo : self.hi].T)
            paired = is_partner(slots, self._rows_local[test], cols[test])
            keep[test.take(np.flatnonzero(paired))] = False
        live = keep if self._live is None else (keep & self._live)
        n_live = int(np.count_nonzero(live))
        newly_dead = self._n_live - n_live
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
        self._n_live = n_live
        if decision.compact:
            if launch is not None:
                # the gather reads the old frontier triple (the keep mask is
                # computed in-kernel), the scatter writes the compacted one
                launch.reads(rows, cols, self._vals, confirmed[self.lo : self.hi])
            survivors = np.flatnonzero(live)
            self._rows = rows.take(survivors)
            self._cols = cols.take(survivors)
            self._vals = self._vals.take(survivors)
            self._live = None
            self.gathered_elements += 3 * n_live
            self._recompute_segments()
            if launch is not None:
                launch.writes(self._rows, self._cols, self._vals)
        else:
            self._live = live
            if launch is not None:
                # no gather: the kernel only refreshes the live mask
                launch.reads(rows, cols, confirmed[self.lo : self.hi])
                launch.writes(live)
        return newly_dead
