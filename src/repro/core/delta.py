"""Incremental extraction for dynamic graphs — the delta engine.

The paper's machinery is frontier-local: a proposition round only consults a
vertex's direct neighbourhood, and the bidirectional scan only walks along
factor edges.  When the weighted graph receives a small edit batch (edge
inserts / deletes / reweights), the updated linear forest therefore differs
from the previous one only *near* the touched vertices — yet a naive client
re-runs the whole pipeline.  :func:`apply_edits` exploits the locality:

1. **Invalidation frontier.**  Let ``T`` be the set of edit endpoints,
   ``M = config.max_iterations`` the round bound of Algorithm 2, and
   ``R = 2M - 1`` (:func:`invalidation_radius`).  One proposition round
   moves a state difference up to **two** hops: a vertex's new
   confirmations are the *mutual* proposals, and a neighbour's proposal
   depends on the saturation state of the neighbour's own neighbours
   (propose reads one hop out, mutualize reads the proposers' reads); the
   first round only sees the static rows one hop out, hence ``2M - 1``
   over a full run.  Charges hash the *global* vertex id
   (:func:`~repro.core.charge.vertex_charges`), so they are
   edit-invariant.  After ``M`` rounds only ``ball(T, R)`` can differ
   from the previous factor.
2. **Frontier-local recompute.**  The factor rounds re-run on the subgraph
   induced by ``ball(T, 2R+1)`` (only the region boundary's rows are
   truncated by the cut, and the boundary sits ``R+1`` hops from the core
   — too far for the truncation to reach it, by the same propagation
   bound), through the ordinary
   :class:`~repro.core.proposer.PropositionEngine` round loop of
   :func:`~repro.core.factor.parallel_factor`, with ``charge_ids`` mapping
   region vertices back to their global identities.  Rows of ``ball(T, R)``
   are then spliced into the previous confirmed-partner array; every other
   row is reused verbatim.
3. **Localized rescan.**  Only components of the new factor that contain a
   touched or changed vertex are re-walked for cycle breaking and path
   ids/positions (the paper's path-id convention — minimum end id, position
   1 at that end — is intrinsic to a component, so untouched components keep
   their ids).  Band coefficients are spliced the same way: untouched paths
   copy their old band values to their new offsets, recomputed paths read
   their rows of the edited matrix.

The host work follows the edit, not the graph.  Apart from copying the
two CSR matrices it returns and summing ω_G, :func:`apply_edits` reads only
the ball, the re-walked components or the forest.  Both matrices are spliced
(:func:`_splice`): edited entries are found by a binary search inside their
rows (:meth:`~repro.sparse.csr.CSRMatrix.find`), only the span between the
first and the last of them is rebuilt, and the rest is copied as two
slices.  The prepared graph is spliced from the previous one when that
:class:`~repro.sparse.build.PreparedGraph` records the symmetric branch of
``prepare_graph`` (:func:`_edited_graph`), and ω_G is read from it when it
also records that only the diagonal was dropped.  The ball search stops at
the fallback cutoff, and the coverage is read from the new bands.

The recompute runs on a scratch device and is metered on the caller's device
as four fused ``delta.*`` launches (a region thousands of times smaller than
the graph fits a persistent kernel, so the round loop's launch overhead
amortizes into one) whose byte volume is the scratch device's measured
traffic — the gate in ``benchmarks/test_delta_budget.py`` pins both launches
and bytes at a small fraction of a from-scratch run (``delta_budget.json``).

Correctness bar (ROADMAP): the spliced result is **bit-identical** to a
from-scratch :func:`~repro.core.pipeline.extract_linear_forest` on the edited
matrix — every array, including factor slot order — property-tested over
random edit batches × dtype × compaction policy in
``tests/properties/test_delta_properties.py``.  Sharded runs (``devices>1``)
fall back to a full re-run with a :class:`DeltaFallbackWarning`: the halo
protocol has no update path yet.  See ``docs/INCREMENTAL.md``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .._validation import INDEX_DTYPE, _is_flag, _is_integral, _is_real, require
from ..device.device import Device, DeviceGroup
from ..device.profiler import TimingBreakdown
from ..errors import ConfigError, ShapeError
from ..obs import Tracer, current_metrics, trace_span
from ..sparse.build import PreparedGraph, prepare_graph
from ..sparse.csr import CSRMatrix
from .coverage import graph_weight, weighted_band_coverage
from .cycles import BrokenCycles, weakest_edges
from .extraction import TridiagonalSystem
from .factor import ParallelFactorConfig, parallel_factor
from .partition import resolve_device
from .paths import PathInfo
from .permutation import forest_permutation, inverse_permutation
from .pipeline import (
    PHASE_EXTRACT,
    PHASE_FACTOR,
    PHASE_SCANS,
    LinearForestResult,
    extract_linear_forest,
)
from .structures import NO_PARTNER, Factor

__all__ = [
    "DeltaFallbackWarning",
    "DeltaResult",
    "DeltaStats",
    "EditBatch",
    "apply_edits",
    "apply_edits_to_matrix",
    "invalidation_radius",
]


class DeltaFallbackWarning(UserWarning):
    """The delta engine fell back to a full from-scratch re-run."""


# ---------------------------------------------------------------------------
# Edit batches
# ---------------------------------------------------------------------------


def _refuse_first(bad: np.ndarray, why) -> None:
    """Raise a :class:`ConfigError` naming the first edit flagged in ``bad``."""
    if bool(bad.any()):
        i = int(np.flatnonzero(bad)[0])
        raise ConfigError(f"edit #{i}: {why(i)}")


def _checked(values, name: str, ok, what: str, dtype) -> np.ndarray:
    """``values`` as a ``dtype`` array.  An element that ``ok`` refuses is
    named in a :class:`ConfigError`, never converted (``1.7`` would
    truncate to vertex 1, ``"false"`` would read as a delete).  Elements
    are checked as given: a list is not first made one array, which would
    turn the ``True`` of ``[0, True]`` into ``1``."""
    arr = values if isinstance(values, np.ndarray) else np.asarray(values, dtype=object)
    items = arr.ravel().tolist()
    _refuse_first(
        np.array([not ok(x) for x in items], dtype=bool),
        lambda i: f"{name} = {items[i]!r} is not {what}",
    )
    return np.ascontiguousarray(arr, dtype=dtype)


@dataclass(frozen=True)
class EditBatch:
    """A batch of undirected edge edits against a weighted graph.

    Each entry edits the (symmetric) off-diagonal pair ``(u, v)``/``(v, u)``
    of the *original* matrix: ``delete[i]`` removes the coupling, otherwise
    its value is set to ``w[i]`` — inserting the entry when absent,
    reweighting it when present.  Later entries win over earlier ones on the
    same pair.  Diagonal entries are not editable (they never enter the
    factor; re-extract from scratch if the diagonal changes).

    The JSON form (CLI ``--edits`` files and the serve ``update`` op) is a
    list of objects: ``{"u": 3, "v": 7, "w": 0.25}`` sets a weight and
    ``{"u": 3, "v": 7, "delete": true}`` removes the edge.
    """

    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    delete: np.ndarray

    def __post_init__(self) -> None:
        u = _checked(self.u, "u", _is_integral, "an integer vertex id", INDEX_DTYPE)
        v = _checked(self.v, "v", _is_integral, "an integer vertex id", INDEX_DTYPE)
        w = _checked(self.w, "w", _is_real, "a number", np.float64)
        delete = _checked(self.delete, "delete", _is_flag, "a boolean", bool)
        require(
            u.ndim == 1 and u.shape == v.shape == w.shape == delete.shape,
            "u, v, w, delete must be equal-length 1-D arrays",
            ShapeError,
        )
        require(bool((u != v).all()), "self-loop edits are not allowed", ConfigError)
        require(
            bool((u >= 0).all() and (v >= 0).all()),
            "negative vertex id in edit batch",
            ConfigError,
        )
        live = ~delete
        if bool(live.any()):
            _refuse_first(
                live & ~np.isfinite(w), lambda i: f"weight {float(w[i])} is not finite"
            )
            _refuse_first(
                live & (w == 0.0),
                lambda i: "weight 0 would drop the entry; use a delete edit instead",
            )
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "delete", delete)

    def __len__(self) -> int:
        return int(self.u.size)

    @cached_property
    def touched(self) -> np.ndarray:
        """Sorted unique endpoint ids of the batch (the seed set ``T``)."""
        return np.unique(np.concatenate([self.u, self.v]))

    @staticmethod
    def empty() -> "EditBatch":
        return EditBatch(
            u=np.empty(0, dtype=INDEX_DTYPE),
            v=np.empty(0, dtype=INDEX_DTYPE),
            w=np.empty(0, dtype=np.float64),
            delete=np.empty(0, dtype=bool),
        )

    @staticmethod
    def single(u: int, v: int, w: float | None = None) -> "EditBatch":
        """One edit: set ``{u, v}`` to ``w``, or delete it when ``w is None``."""
        return EditBatch(
            u=np.array([u]),
            v=np.array([v]),
            w=np.array([0.0 if w is None else w]),
            delete=np.array([w is None]),
        )

    @classmethod
    def from_dicts(cls, edits: list) -> "EditBatch":
        """Parse the JSON form (see the class docstring)."""
        if not isinstance(edits, list):
            raise ConfigError(f"edit batch must be a list, got {type(edits).__name__}")
        u, v, w, delete = [], [], [], []
        for i, e in enumerate(edits):
            if not isinstance(e, dict):
                raise ConfigError(f"edit #{i} must be an object, got {type(e).__name__}")
            unknown = set(e) - {"u", "v", "w", "delete"}
            if unknown:
                raise ConfigError(f"edit #{i} has unknown keys {sorted(unknown)}")
            if not (_is_integral(e.get("u")) and _is_integral(e.get("v"))):
                raise ConfigError(f"edit #{i} needs integer 'u' and 'v'")
            u.append(int(e["u"]))
            v.append(int(e["v"]))
            flag = e.get("delete", False)
            if not isinstance(flag, bool):
                raise ConfigError(f"edit #{i} has a non-boolean 'delete' {flag!r}")
            if flag:
                if "w" in e:
                    raise ConfigError(f"edit #{i} sets both 'w' and 'delete'")
                delete.append(True)
                w.append(0.0)
            else:
                if not _is_real(e.get("w")):
                    raise ConfigError(
                        f"edit #{i} needs a numeric 'w' (or 'delete': true)"
                    )
                w.append(float(e["w"]))
                delete.append(False)
        return cls(
            u=np.array(u, dtype=INDEX_DTYPE),
            v=np.array(v, dtype=INDEX_DTYPE),
            w=np.array(w, dtype=np.float64),
            delete=np.array(delete, dtype=bool),
        )

    def to_dicts(self) -> list:
        """The JSON form of the batch (inverse of :meth:`from_dicts`)."""
        out = []
        for i in range(len(self)):
            if bool(self.delete[i]):
                out.append({"u": int(self.u[i]), "v": int(self.v[i]), "delete": True})
            else:
                out.append(
                    {"u": int(self.u[i]), "v": int(self.v[i]), "w": float(self.w[i])}
                )
        return out


def apply_edits_to_matrix(a: CSRMatrix, edits: EditBatch) -> CSRMatrix:
    """The edited matrix — the ground truth a delta run must reproduce.

    Every edit replaces the symmetric pair ``(u, v)`` and ``(v, u)`` of the
    original matrix (both directions, so a pattern-symmetric input stays
    pattern-symmetric); deletes drop both entries.  A set weight must stay
    finite and nonzero in the matrix dtype (``1e39`` or ``1e-50`` is refused
    on a float32 matrix).  This is a host-side assembly step, not a kernel:
    the from-scratch comparison run receives exactly this matrix.
    """
    if len(edits) == 0 and a.n_rows == a.n_cols:
        return a
    return _splice(a, *_edit_entries(a, edits))


def _edit_entries(
    a: CSRMatrix, edits: EditBatch
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The batch as entries of ``a``: rows and columns of both directions of
    every edited pair in CSR order (the last edit of a pair wins), which of
    them are set, and the set values in ``a``'s dtype."""
    if a.n_rows != a.n_cols:
        raise ShapeError("edit batches are defined on square adjacency matrices")
    n = a.n_rows
    if int(edits.touched[-1]) >= n:
        raise ConfigError(
            f"edit endpoint {int(edits.touched[-1])} out of range for a {n}-vertex graph"
        )
    dtype = a.data.dtype
    with np.errstate(over="ignore"):
        cast = edits.w.astype(dtype)
    _refuse_first(
        ~edits.delete & ~(np.isfinite(cast) & (cast != 0)),
        lambda i: f"weight {float(edits.w[i])} is not finite and nonzero in {dtype.name}",
    )
    # later edits win: keep the last entry per unordered pair
    lo = np.minimum(edits.u, edits.v)
    hi = np.maximum(edits.u, edits.v)
    _, last_in_reversed = np.unique((lo * n + hi)[::-1], return_index=True)
    keep = len(edits) - 1 - last_in_reversed
    lo, hi, cast, delete = lo[keep], hi[keep], cast[keep], edits.delete[keep]

    # both directions of every edited pair, in CSR (row, col) key order
    rows = np.concatenate([lo, hi])
    cols = np.concatenate([hi, lo])
    order = np.argsort(rows * n + cols)
    rows, cols = rows[order], cols[order]
    sets = ~np.concatenate([delete, delete])[order]
    return rows, cols, sets, np.concatenate([cast, cast])[order][sets]


def _splice(
    m: CSRMatrix, rows: np.ndarray, cols: np.ndarray, sets: np.ndarray, vals: np.ndarray,
    cls: type = CSRMatrix, **proof,
) -> CSRMatrix:
    """``m`` with the entries ``(rows, cols)`` (sorted, unique) dropped and
    the ``sets`` ones inserted again with ``vals``, at their sorted positions
    among the survivors, built as ``cls(..., **proof)``.

    Only the span from the first edited position to the last is rebuilt.
    The entries before and after it are copied as two slices, and so are
    the row pointers outside the edited rows, shifted by the change in the
    entry count."""
    pos, stored = m.find(rows, cols)
    lo, hi = int(pos[0]), int(pos[-1] + stored[-1])
    drop = pos[stored]
    kept = np.ones(hi - lo, dtype=bool)
    kept[drop - lo] = False
    # where each set entry lands in the new span, after the earlier ones
    added = pos[sets] - lo - np.searchsorted(drop, pos[sets]) + np.arange(vals.size)
    width = hi - lo - drop.size + vals.size
    old = np.ones(width, dtype=bool)
    old[added] = False
    shift = width - (hi - lo)

    def spliced(x: np.ndarray, new: np.ndarray) -> np.ndarray:
        out = np.empty(x.size + shift, dtype=x.dtype)
        out[:lo] = x[:lo]
        out[lo + width :] = x[hi:]
        span = out[lo : lo + width]
        span[added] = new
        span[old] = x[lo:hi][kept]
        return out

    r0, r1 = int(rows[0]), int(rows[-1]) + 1  # the edited rows
    counts = (
        np.diff(m.indptr[r0 : r1 + 1])
        - np.bincount(rows[stored] - r0, minlength=r1 - r0)
        + np.bincount(rows[sets] - r0, minlength=r1 - r0)
    )
    indptr = np.concatenate(
        [m.indptr[: r0 + 1], m.indptr[r0] + np.cumsum(counts), m.indptr[r1 + 1 :] + shift]
    )
    return cls(
        indptr=indptr,
        indices=spliced(m.indices, cols[sets]),
        data=spliced(m.data, vals),
        shape=m.shape,
        **proof,
    )


def _edited_graph(
    previous: CSRMatrix, a_new: CSRMatrix, entries: tuple
) -> tuple[PreparedGraph, bool]:
    """``prepare_graph(a_new)``, and whether it was spliced from ``previous``.

    ``previous`` is the prepared graph of the matrix the edits apply to
    (:func:`apply_edits` requires its result on that matrix).  When it
    records the symmetric branch of ``prepare_graph``, ``A'`` was symmetric
    and the symmetric edits keep it so: splicing the edits' ``|w|`` into
    ``previous`` gives the same arrays without a full preparation.  A set
    weight is finite and nonzero and a delete drops both directions, so the
    spliced graph leaves out only the diagonal of ``a_new`` whenever
    ``previous`` left out only the diagonal of its matrix."""
    if not (isinstance(previous, PreparedGraph) and previous.symmetric):
        return prepare_graph(a_new), False
    rows, cols, sets, vals = entries
    return _splice(
        previous, rows, cols, sets, np.abs(vals), PreparedGraph,
        symmetric=True, diagonal_only=previous.diagonal_only,
    ), True


# ---------------------------------------------------------------------------
# Invalidation frontier
# ---------------------------------------------------------------------------


def invalidation_radius(config: ParallelFactorConfig) -> int:
    """Hops a factor-state difference can travel over a full run.

    One round moves a difference up to **two** hops, not one: a vertex's new
    confirmations are the *mutual* proposals, and a neighbour's proposal
    depends on the saturation state of the neighbour's own neighbours
    (propose reads one hop, mutualize reads the proposers' reads).  The
    first round only reads the static rows one hop out, so after ``M``
    rounds a difference reaches at most ``2M - 1`` hops from its origin.
    """
    return 2 * int(config.max_iterations) - 1


def _row_entries(m: CSRMatrix, rows: np.ndarray) -> np.ndarray:
    """Flat positions of the entries of ``rows``, row after row."""
    starts = m.indptr[rows]
    lengths = m.indptr[rows + 1] - starts
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if ends.size else 0
    return np.repeat(starts - ends + lengths, lengths) + np.arange(total)


def _ball(
    graph: CSRMatrix, seeds: np.ndarray, radius: int, limit: float
) -> tuple[list[np.ndarray], int]:
    """The vertices within ``radius`` hops of the seed set, level by level
    (level 0 holds the seeds), and the number of adjacency entries read.

    Only frontier rows are read, and the search stops expanding as soon as
    it holds more than ``limit`` vertices: the full ball would be larger
    still, so the caller's fallback decision is the same.  Distances are
    measured on the *edited* prepared graph; this equals the distance in the
    union of the old and new graphs because every old-only (deleted) edge
    has both endpoints in the seed set, so crossing one never shortens a
    path from the set.
    """
    seen = np.zeros(graph.n_rows, dtype=bool)
    frontier = np.unique(seeds)
    seen[frontier] = True
    levels = [frontier]
    held = frontier.size
    read = 0
    for _ in range(radius):
        if frontier.size == 0 or held > limit:
            break
        entries = _row_entries(graph, frontier)
        read += entries.size
        reached = graph.indices[entries]
        frontier = np.unique(reached[~seen[reached]])
        seen[frontier] = True
        levels.append(frontier)
        held += frontier.size
    return levels, read


def _induced_subgraph(
    graph: CSRMatrix, members: np.ndarray
) -> tuple[CSRMatrix, np.ndarray]:
    """Induced subgraph on ``members`` (sorted global ids) with monotone
    relabelling — row order and within-row column order are preserved, so the
    proposition engine sees its rows exactly as it would in the full graph.
    Reads only the member rows.  Returns the subgraph and the global→local
    id map (−1 outside)."""
    local = np.full(graph.n_rows, -1, dtype=INDEX_DTYPE)
    local[members] = np.arange(members.size, dtype=INDEX_DTYPE)
    take = _row_entries(graph, members)
    cols = local[graph.indices[take]]
    inside = cols >= 0
    rows_local = np.repeat(
        np.arange(members.size, dtype=INDEX_DTYPE), graph.row_lengths[members]
    )[inside]
    indptr = np.zeros(members.size + 1, dtype=INDEX_DTYPE)
    np.cumsum(np.bincount(rows_local, minlength=members.size), out=indptr[1:])
    sub = CSRMatrix(
        indptr=indptr,
        indices=cols[inside],
        data=graph.data[take[inside]],
        shape=(int(members.size), int(members.size)),
    )
    return sub, local


# ---------------------------------------------------------------------------
# Localized rescan (cycle breaking + path ids/positions)
# ---------------------------------------------------------------------------


def _walk_components(left: list, right: list) -> tuple[list, list, list]:
    """Walk every component of a partner list pair once.

    ``left[v]``/``right[v]`` are ``v``'s partners in plain Python ints
    (``-1`` for none; rows are compacted, so no ``right`` without a
    ``left``).  Returns the vertices of all components, concatenated in walk
    order, each component's length and whether it is a cycle: a path runs
    end to end, a cycle once around from its smallest vertex.
    """
    visited = bytearray(len(left))
    flat: list = []
    lengths: list = []
    cycles: list = []
    for start in range(len(left)):
        if visited[start]:
            continue
        order = [start]
        prev, cur = start, left[start]
        while cur != NO_PARTNER and cur != start:
            order.append(cur)
            nxt = left[cur]
            prev, cur = cur, (right[cur] if nxt == prev else nxt)
        is_cycle = cur == start
        if not is_cycle:
            # reached an end; extend the other way from `start`
            back = []
            prev, cur = start, right[start]
            while cur != NO_PARTNER:
                back.append(cur)
                nxt = left[cur]
                prev, cur = cur, (right[cur] if nxt == prev else nxt)
            back.reverse()
            order = back + order
        for v in order:
            visited[v] = 1
        flat += order
        lengths.append(len(order))
        cycles.append(is_cycle)
    return flat, lengths, cycles


def _rescan_region(
    raw_factor: Factor,
    graph: CSRMatrix,
    region: np.ndarray,
    previous: LinearForestResult,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Recompute path ids/positions/cycles for the affected components.

    ``region`` is a boolean vertex mask closed under components of
    ``raw_factor`` (no factor edge leaves it).  Each component is walked
    once; every cycle then loses its weakest edge — the lexicographic
    minimum of the triple (|weight|, min endpoint id, max endpoint id),
    which :func:`~repro.core.cycles.weakest_edges` finds with the component
    index as the label, as :func:`~repro.core.cycles.break_cycles` does with
    its cycle labels — and becomes the path between that edge's endpoints.
    Position 1 sits at a path's smaller end id, which is also its id.
    Returns the new per-vertex ``path_id``/``position``/``cycle_mask``
    arrays (previous values outside the region), the full removed-edge pair
    arrays, and the number of re-walked components.
    """
    ids = np.flatnonzero(region)
    local = np.full(region.size, NO_PARTNER, dtype=INDEX_DTYPE)
    local[ids] = np.arange(ids.size, dtype=INDEX_DTYPE)
    partners = raw_factor.neighbors[ids]
    partners = np.where(partners == NO_PARTNER, NO_PARTNER, local[partners])
    flat, lengths, cycles = _walk_components(
        partners[:, 0].tolist(), partners[:, 1].tolist()
    )
    vertex = ids[np.asarray(flat, dtype=INDEX_DTYPE)]
    lengths = np.asarray(lengths, dtype=INDEX_DTYPE)
    is_cycle = np.asarray(cycles, dtype=bool)
    comp = np.repeat(np.arange(lengths.size, dtype=INDEX_DTYPE), lengths)
    first = np.cumsum(lengths) - lengths
    offset = np.arange(vertex.size, dtype=INDEX_DTYPE) - first[comp]
    size = lengths[comp]

    # the weakest edge of every cycle: edge i joins offsets i and i + 1
    cyc = np.flatnonzero(is_cycle[comp])
    u = vertex[cyc]
    v = vertex[np.where(offset[cyc] + 1 == size[cyc], first[comp[cyc]], cyc + 1)]
    weakest = weakest_edges(graph, comp[cyc], u, v)[0]
    lo = np.minimum(u[weakest], v[weakest])
    hi = np.maximum(u[weakest], v[weakest])
    # a cycle becomes the path that starts just past its weakest edge
    shift = np.zeros(lengths.size, dtype=INDEX_DTYPE)
    shift[comp[cyc[weakest]]] = offset[cyc[weakest]] + 1
    offset = (offset - shift[comp]) % size
    head = np.empty(lengths.size, dtype=INDEX_DTYPE)
    tail = np.empty(lengths.size, dtype=INDEX_DTYPE)
    head[comp[offset == 0]] = vertex[offset == 0]
    tail[comp[offset == size - 1]] = vertex[offset == size - 1]
    offset = np.where((head > tail)[comp], size - 1 - offset, offset)

    path_id = previous.paths.path_id.copy()
    position = previous.paths.position.copy()
    cycle_mask = previous.broken.cycle_mask.copy()
    path_id[vertex] = np.minimum(head, tail)[comp]
    position[vertex] = offset + 1
    cycle_mask[vertex] = is_cycle[comp]

    # removed pairs of untouched cycles survive; affected ones are re-derived
    old_u, old_v = previous.broken.removed_u, previous.broken.removed_v
    kept = ~region[old_u]
    pairs = np.unique(
        np.stack(
            [
                np.concatenate([old_u[kept], lo]),
                np.concatenate([old_v[kept], hi]),
            ],
            axis=1,
        ),
        axis=0,
    )
    return path_id, position, cycle_mask, pairs[:, 0], pairs[:, 1], int(lengths.size)


def _splice_bands(
    a: CSRMatrix,
    previous: LinearForestResult,
    paths: PathInfo,
    perm: np.ndarray,
    region: np.ndarray,
) -> TridiagonalSystem:
    """Band buffers of the edited system: untouched vertices copy their old
    band values to their new offsets, affected positions read their rows of
    the edited matrix — reproducing the scatter of
    :func:`~repro.core.extraction.extract_tridiagonal` exactly (band values
    are raw copies of matrix entries, so no floating-point arithmetic enters
    the splice).  Edits never touch the diagonal, so ``d`` only moves."""
    n = a.n_rows
    band_dtype = a.data.dtype
    dl = np.zeros(n, dtype=band_dtype)
    d = np.zeros(n, dtype=band_dtype)
    du = np.zeros(n, dtype=band_dtype)
    new_index = inverse_permutation(perm)
    old_index = inverse_permutation(previous.perm)
    d[new_index] = previous.tridiagonal.d[old_index]

    reused = np.flatnonzero(~region)
    dl[new_index[reused]] = previous.tridiagonal.dl[old_index[reused]]
    du[new_index[reused]] = previous.tridiagonal.du[old_index[reused]]

    fresh = np.flatnonzero(region)
    pos = new_index[fresh]
    # sub/superdiagonal entries exist exactly between consecutive
    # positions of the same path (those pairs are the forest edges)
    has_prev = (pos > 0) & (
        paths.path_id[perm[np.maximum(pos - 1, 0)]] == paths.path_id[fresh]
    )
    sub = pos[has_prev]
    dl[sub] = a.gather(fresh[has_prev], perm[sub - 1])
    has_next = (pos < n - 1) & (
        paths.path_id[perm[np.minimum(pos + 1, n - 1)]] == paths.path_id[fresh]
    )
    sup = pos[has_next]
    du[sup] = a.gather(fresh[has_next], perm[sup + 1])
    return TridiagonalSystem(dl=dl, d=d, du=du)


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeltaStats:
    """Warm-state reuse accounting of one :func:`apply_edits` call."""

    n_edits: int
    touched_vertices: int
    #: Vertices of the invalidation ball ``ball(T, 2R+1)`` the factor re-ran on.
    region_vertices: int
    #: Vertices whose factor row was replaced from the sub-run (``ball(T, R)``).
    core_vertices: int
    #: Vertices whose confirmed partners actually changed vs the previous factor.
    changed_vertices: int
    #: Vertices re-walked by the localized rescan (affected components).
    rescanned_vertices: int
    affected_components: int
    #: Scratch-device launches of the frontier-local recompute, fused into
    #: the single ``delta.factor`` launch on the caller's device.
    fused_launches: int
    total_vertices: int
    #: ``None`` for a true delta run, else why the engine fell back
    #: (``"sharded"``, ``"region"``) or ``"empty"`` for a no-op batch.
    fallback: str | None = None

    @property
    def reused_fraction(self) -> float:
        """Fraction of vertices whose factor state was reused verbatim."""
        if self.total_vertices == 0:
            return 1.0
        return 1.0 - self.region_vertices / self.total_vertices

    def to_dict(self) -> dict:
        """JSON form (CLI output and the serve ``update`` op's response)."""
        return {
            "n_edits": self.n_edits,
            "touched_vertices": self.touched_vertices,
            "region_vertices": self.region_vertices,
            "core_vertices": self.core_vertices,
            "changed_vertices": self.changed_vertices,
            "rescanned_vertices": self.rescanned_vertices,
            "affected_components": self.affected_components,
            "fused_launches": self.fused_launches,
            "total_vertices": self.total_vertices,
            "reused_fraction": self.reused_fraction,
            "fallback": self.fallback,
        }


@dataclass(frozen=True)
class DeltaResult:
    """Outcome of :func:`apply_edits`.

    ``result`` is a full :class:`~repro.core.pipeline.LinearForestResult` on
    the edited matrix — bit-identical to a from-scratch run, except that the
    factor round bookkeeping (``frontier_history`` and friends) describes the
    frontier-local recompute rather than a global one.  ``matrix`` is the
    edited original matrix: feed it (with this ``result``) to the next
    :func:`apply_edits` to chain updates.  ``result.graph`` carries the
    proof of its preparation, so the next batch splices it again when it is
    ``symmetric``.
    """

    result: LinearForestResult
    matrix: CSRMatrix
    stats: DeltaStats

    @property
    def coverage(self) -> float:
        return self.result.coverage


def apply_edits(
    previous: LinearForestResult,
    edits: EditBatch,
    a: CSRMatrix,
    config: ParallelFactorConfig | None = None,
    *,
    device: Device | None = None,
    devices: int | None = None,
    compaction=None,
    max_region_fraction: float = 0.5,
    edited: CSRMatrix | None = None,
) -> DeltaResult:
    """Update a previous extraction for an edit batch, reusing warm state.

    Parameters
    ----------
    previous:
        The result of :func:`~repro.core.pipeline.extract_linear_forest` (or
        of a previous :func:`apply_edits`) on ``a`` — with the *same*
        ``config``.
    edits:
        The edge edits to apply (see :class:`EditBatch`).
    a:
        The original matrix ``previous`` was extracted from (the pipeline
        result does not retain it; extraction coefficients come from the
        original matrix, not the prepared graph).
    config:
        Algorithm parameters; must match the previous run (default: the
        paper's defaults with n = 2).
    device / devices:
        As in :func:`~repro.core.pipeline.extract_linear_forest`.  A
        :class:`~repro.device.device.DeviceGroup` of more than one device
        (or ``devices > 1``) falls back to a full sharded re-run with a
        :class:`DeltaFallbackWarning` — the halo protocol has no incremental
        path yet; a one-device group runs the delta on its device.
    compaction:
        Frontier-compaction policy for the frontier-local recompute; results
        are bit-identical under every policy.
    max_region_fraction:
        When the invalidation ball covers more than this fraction of the
        vertices, the delta recompute stops paying for itself and the engine
        falls back to a full re-run (``stats.fallback == "region"``).
    edited:
        The edited matrix when the caller already holds it; its value must
        equal ``apply_edits_to_matrix(a, edits)``.  The batch is then not
        spliced into ``a`` a second time, and ``DeltaResult.matrix`` is this
        object.  Only its shape and dtype are checked against ``a``'s (a
        :class:`~repro.errors.ShapeError` when either differs), not its
        entries.

    Returns a :class:`DeltaResult`; an empty batch returns the previous
    result unchanged with **zero** device launches.
    """
    config = config or ParallelFactorConfig(n=2)
    if config.n != 2:
        raise ConfigError(f"linear-forest extraction requires n=2, got n={config.n}")
    if previous.graph.n_rows != a.n_rows:
        raise ShapeError(
            f"previous result covers {previous.graph.n_rows} vertices, "
            f"matrix has {a.n_rows}"
        )
    if edited is not None and (edited.shape, edited.dtype) != (a.shape, a.dtype):
        raise ShapeError(
            f"edited matrix has shape {edited.shape} and dtype {edited.dtype}, "
            f"the matrix {a.shape} and {a.dtype}"
        )
    metrics = current_metrics()

    if len(edits) == 0:
        if metrics is not None:
            metrics.counter("delta.runs").inc()
            metrics.counter("delta.empty_batches").inc()
        return DeltaResult(
            result=previous,
            matrix=a if edited is None else edited,
            stats=DeltaStats(
                n_edits=0, touched_vertices=0, region_vertices=0,
                core_vertices=0, changed_vertices=0, rescanned_vertices=0,
                affected_components=0, fused_launches=0,
                total_vertices=a.n_rows, fallback="empty",
            ),
        )

    entries = _edit_entries(a, edits)

    # device resolution is extract_linear_forest's: a group of several
    # devices means a sharded run — which the delta engine cannot splice
    # yet, so it degrades to a full re-run; one device is the solo case
    device = resolve_device(device, devices)
    if isinstance(device, DeviceGroup):
        if len(device) > 1:
            return _fallback(
                edits, _splice(a, *entries) if edited is None else edited,
                config, "sharded", warn=True,
                device=device, compaction=compaction,
            )
        device = device[0]
    timings = TimingBreakdown()
    radius = invalidation_radius(config)

    with trace_span(
        "apply-edits",
        category="run",
        n_vertices=a.n_rows,
        n_edits=len(edits),
        radius=radius,
        dtype=str(a.data.dtype),
    ) as root:
        with timings.phase(PHASE_FACTOR):
            with trace_span("delta.splice", category="host") as span:
                a_new = _splice(a, *entries) if edited is None else edited
                graph_new, spliced = _edited_graph(previous.graph, a_new, entries)
                if span is not None:
                    span.attributes["spliced"] = spliced
            from .frontier import resolve_compaction

            policy = resolve_compaction(compaction, graph=graph_new)
            if root is not None:
                root.attributes["compaction"] = policy.name

            touched = edits.touched
            with trace_span("delta.frontier", category="stage") as span, device.launch(
                "delta.frontier", reads=(touched,)
            ) as kl:
                limit = max_region_fraction * a.n_rows
                levels, rows_read = _ball(graph_new, touched, 2 * radius + 1, limit)
                members = np.sort(np.concatenate(levels))
                core = np.sort(np.concatenate(levels[: radius + 1]))
                too_big = members.size > limit
                # the BFS streams the region's adjacency rows (which the
                # induced subgraph reads in full) plus the distance updates;
                # a search stopped by the cutoff read only its frontier rows
                if not too_big:
                    rows_read = int(graph_new.row_lengths[members].sum())
                kl.meter(
                    read=rows_read * 8 + members.size * 8,
                    written=members.size * 8,
                )
                if span is not None:
                    span.attributes.update(region=int(members.size), core=int(core.size))

            if too_big:
                if root is not None:
                    root.attributes["fallback"] = "region"
                return _fallback(
                    edits, a_new, config, "region",
                    device=device, compaction=policy, prepared_graph=graph_new,
                )

            # frontier-local factor recompute on a scratch device, fused into
            # one launch on the caller's device: bytes are the scratch
            # device's measured traffic, the region's round loop amortizes
            # into a single persistent-kernel launch
            # the private tracer keeps the scratch launches out of the
            # ambient span tree: callers see exactly the four fused
            # delta.* kernel spans, with the scratch traffic as their bytes
            sub_device = Device("delta-scratch", tracer=Tracer("delta-scratch"))
            sub_graph, local = _induced_subgraph(graph_new, members)
            with trace_span(
                "delta.factor", category="stage", region=int(members.size)
            ), device.launch("delta.factor") as kl:
                sub_result = parallel_factor(
                    sub_graph, config, device=sub_device,
                    compaction=policy, charge_ids=members,
                )
                raw = previous.factor_result.factor.neighbors.copy()
                sub_rows = sub_result.factor.neighbors[local[core]]
                raw[core] = np.where(
                    sub_rows == NO_PARTNER, NO_PARTNER, members[np.maximum(sub_rows, 0)]
                )
                changed = core[
                    (raw[core] != previous.factor_result.factor.neighbors[core]).any(
                        axis=1
                    )
                ]
                kl.meter(
                    read=sum(k.bytes_read for k in sub_device.kernels)
                    + core.size * 16,
                    written=sum(k.bytes_written for k in sub_device.kernels)
                    + core.size * 16,
                )
                kl.annotate(fused_launches=sub_device.launch_count)
                kl.telemetry(
                    active_lanes=int(sub_graph.nnz), total_lanes=int(graph_new.nnz)
                )
            raw_factor = Factor(raw)

        with timings.phase(PHASE_SCANS):
            # components to re-walk: everything sharing an old path with a
            # touched or changed vertex.  The set is closed under the *new*
            # factor too: a new factor edge only ever joins two changed rows.
            mark = np.union1d(touched, changed)
            affected = np.zeros(a.n_rows, dtype=bool)
            affected[previous.paths.path_id[mark]] = True
            region_mask = affected[previous.paths.path_id]
            n_rescanned = int(region_mask.sum())
            with trace_span(
                "delta.rescan", category="stage", rescanned=n_rescanned
            ), device.launch("delta.rescan") as kl:
                path_id, position, cycle_mask, removed_u, removed_v, n_comp = (
                    _rescan_region(raw_factor, graph_new, region_mask, previous)
                )
                # the walk streams each member's partner pair and writes its
                # (path id, position, cycle flag) triple
                kl.meter(read=n_rescanned * 16, written=n_rescanned * 17)
                kl.telemetry(active_lanes=2 * n_rescanned, total_lanes=2 * a.n_rows)
            forest = raw_factor.remove_edges(removed_u, removed_v)
            paths = PathInfo(path_id=path_id, position=position)
            perm = forest_permutation(paths)

        with timings.phase(PHASE_EXTRACT):
            with trace_span("delta.extract", category="stage"), device.launch(
                "delta.extract"
            ) as kl:
                tridiagonal = _splice_bands(a_new, previous, paths, perm, region_mask)
                item = tridiagonal.d.dtype.itemsize
                kl.meter(
                    read=3 * (a.n_rows - n_rescanned) * item  # old band values
                    + n_rescanned * (3 * item + 16),  # fresh gathers
                    written=3 * a.n_rows * item,
                )

        with trace_span("delta.coverage", category="host"):
            # ω_G: such a graph holds |a_ij| of every off-diagonal entry of
            # a_new, in the order and dtype that graph_weight sums them
            proved = graph_new.symmetric and graph_new.diagonal_only
            total = float(graph_new.data.sum()) / 2.0 if proved else graph_weight(a_new)
            cov = weighted_band_coverage(total, forest, perm, tridiagonal)
        if root is not None:
            root.attributes.update(
                coverage=cov,
                region=int(members.size),
                changed=int(changed.size),
                rescanned=n_rescanned,
            )

    stats = DeltaStats(
        n_edits=len(edits),
        touched_vertices=int(touched.size),
        region_vertices=int(members.size),
        core_vertices=int(core.size),
        changed_vertices=int(changed.size),
        rescanned_vertices=n_rescanned,
        affected_components=n_comp,
        fused_launches=int(sub_device.launch_count),
        total_vertices=a.n_rows,
    )
    if metrics is not None:
        metrics.counter("delta.runs").inc()
        metrics.counter("delta.edits").inc(len(edits))
        metrics.counter("delta.region_vertices").inc(int(members.size))
        metrics.counter("delta.changed_vertices").inc(int(changed.size))
        metrics.counter("delta.rescanned_vertices").inc(n_rescanned)
        metrics.counter("delta.reused_vertices").inc(int(a.n_rows - members.size))

    result = LinearForestResult(
        graph=graph_new,
        factor_result=replace(sub_result, factor=raw_factor, coverage_history=[]),
        broken=BrokenCycles(
            forest=forest, removed_u=removed_u, removed_v=removed_v,
            cycle_mask=cycle_mask,
        ),
        paths=paths,
        perm=perm,
        tridiagonal=tridiagonal,
        coverage=cov,
        timings=timings,
    )
    return DeltaResult(result=result, matrix=a_new, stats=stats)


def _fallback(
    edits: EditBatch,
    a_new: CSRMatrix,
    config: ParallelFactorConfig,
    reason: str,
    *,
    warn: bool = False,
    device=None,
    devices=None,
    compaction=None,
    prepared_graph: PreparedGraph | None = None,
) -> DeltaResult:
    """Full from-scratch re-run on the edited matrix (correct, not warm).

    ``prepared_graph`` is ``prepare_graph(a_new)`` when the caller already
    built it, so the re-run does not prepare the edited matrix twice.
    """
    if warn:
        warnings.warn(
            "apply_edits on a sharded device group falls back to a full "
            "re-run; the halo protocol has no incremental path yet",
            DeltaFallbackWarning,
            stacklevel=3,
        )
    metrics = current_metrics()
    if metrics is not None:
        metrics.counter("delta.runs").inc()
        metrics.counter("delta.fallbacks").inc()
        metrics.counter(f"delta.fallbacks[{reason}]").inc()
    result = extract_linear_forest(
        a_new, config, device=device, devices=devices, compaction=compaction,
        prepared_graph=prepared_graph,
    )
    return DeltaResult(
        result=result,
        matrix=a_new,
        stats=DeltaStats(
            n_edits=len(edits),
            touched_vertices=int(edits.touched.size),
            region_vertices=a_new.n_rows,
            core_vertices=a_new.n_rows,
            changed_vertices=0,
            rescanned_vertices=a_new.n_rows,
            affected_components=0,
            fused_launches=0,
            total_vertices=a_new.n_rows,
            fallback=reason,
        ),
    )
