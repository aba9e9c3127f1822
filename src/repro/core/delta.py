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
   copy their old band values to their new offsets, recomputed paths gather
   from the edited matrix.

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
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .._validation import INDEX_DTYPE, require
from ..device.device import Device, DeviceGroup, KernelLaunch, default_device
from ..device.profiler import TimingBreakdown
from ..errors import ConfigError, ShapeError
from ..obs import Tracer, current_metrics, trace_span
from ..sparse.build import prepare_graph
from ..sparse.csr import CSRMatrix
from .coverage import coverage as coverage_of
from .cycles import BrokenCycles
from .extraction import TridiagonalSystem
from .factor import ParallelFactorConfig, ParallelFactorResult, parallel_factor
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
        u = np.ascontiguousarray(self.u, dtype=INDEX_DTYPE)
        v = np.ascontiguousarray(self.v, dtype=INDEX_DTYPE)
        w = np.ascontiguousarray(self.w, dtype=np.float64)
        delete = np.ascontiguousarray(self.delete, dtype=bool)
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
            require(
                bool(np.isfinite(w[live]).all()),
                "edit weights must be finite",
                ConfigError,
            )
            require(
                bool((w[live] != 0.0).all()),
                "weight 0 would drop the entry; use a delete edit instead",
                ConfigError,
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
            try:
                u.append(int(e["u"]))
                v.append(int(e["v"]))
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"edit #{i} needs integer 'u' and 'v'") from exc
            if e.get("delete", False):
                if "w" in e:
                    raise ConfigError(f"edit #{i} sets both 'w' and 'delete'")
                delete.append(True)
                w.append(0.0)
            else:
                try:
                    w.append(float(e["w"]))
                except (KeyError, TypeError, ValueError) as exc:
                    raise ConfigError(
                        f"edit #{i} needs a numeric 'w' (or 'delete': true)"
                    ) from exc
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
    pattern-symmetric); deletes drop both entries.  This is a host-side
    assembly step, not a kernel: the from-scratch comparison run receives
    exactly this matrix.
    """
    if a.n_rows != a.n_cols:
        raise ShapeError("edit batches are defined on square adjacency matrices")
    if len(edits) == 0:
        return a
    n = a.n_rows
    if int(edits.touched[-1]) >= n:
        raise ConfigError(
            f"edit endpoint {int(edits.touched[-1])} out of range for a {n}-vertex graph"
        )
    # later edits win: keep the last entry per unordered pair
    lo = np.minimum(edits.u, edits.v)
    hi = np.maximum(edits.u, edits.v)
    pair_keys = lo * n + hi
    _, last_in_reversed = np.unique(pair_keys[::-1], return_index=True)
    keep = len(edits) - 1 - last_in_reversed
    lo, hi, w, delete = lo[keep], hi[keep], edits.w[keep], edits.delete[keep]

    # both directions of every edited pair, in CSR (row, col) key order
    rows = np.concatenate([lo, hi])
    cols = np.concatenate([hi, lo])
    edit_keys = rows * n + cols
    order = np.argsort(edit_keys)
    rows, cols, edit_keys = rows[order], cols[order], edit_keys[order]
    sets = ~np.concatenate([delete, delete])[order]
    vals = np.concatenate([w, w])[order][sets].astype(a.data.dtype)

    # splice: drop every stored edited entry, then insert the set ones at
    # their sorted positions among the survivors
    entry_keys = a.nnz_rows * n + a.indices
    pos = np.searchsorted(entry_keys, edit_keys)
    stored = pos < a.nnz
    stored[stored] = entry_keys[pos[stored]] == edit_keys[stored]
    drop = pos[stored]
    at = pos[sets] - np.searchsorted(drop, pos[sets])
    counts = (
        a.row_lengths
        - np.bincount(rows[stored], minlength=n)
        + np.bincount(rows[sets], minlength=n)
    )
    indptr = np.zeros(n + 1, dtype=INDEX_DTYPE)
    np.cumsum(counts, out=indptr[1:])
    return CSRMatrix(
        indptr=indptr,
        indices=np.insert(np.delete(a.indices, drop), at, cols[sets]),
        data=np.insert(np.delete(a.data, drop), at, vals),
        shape=a.shape,
    )


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


def _ball(graph: CSRMatrix, seeds: np.ndarray, radius: int) -> np.ndarray:
    """Hop distance from the seed set, clipped at ``radius + 1``.

    Distances are measured on the *edited* prepared graph; this equals the
    distance in the union of the old and new graphs because every old-only
    (deleted) edge has both endpoints in the seed set, so crossing one never
    shortens a path from the set.
    """
    dist = np.full(graph.n_rows, radius + 1, dtype=INDEX_DTYPE)
    frontier = np.unique(seeds)
    dist[frontier] = 0
    for level in range(1, radius + 1):
        if frontier.size == 0:
            break
        in_frontier = np.zeros(graph.n_rows, dtype=bool)
        in_frontier[frontier] = True
        neighbours = graph.indices[np.repeat(in_frontier, graph.row_lengths)]
        frontier = np.unique(neighbours[dist[neighbours] > level])
        dist[frontier] = level
    return dist


def _induced_subgraph(
    graph: CSRMatrix, members: np.ndarray
) -> tuple[CSRMatrix, np.ndarray]:
    """Induced subgraph on ``members`` (sorted global ids) with monotone
    relabelling — row order and within-row column order are preserved, so the
    proposition engine sees its rows exactly as it would in the full graph.
    Returns the subgraph and the global→local id map (−1 outside)."""
    local = np.full(graph.n_rows, -1, dtype=INDEX_DTYPE)
    local[members] = np.arange(members.size, dtype=INDEX_DTYPE)
    member_mask = np.zeros(graph.n_rows, dtype=bool)
    member_mask[members] = True
    take = np.flatnonzero(np.repeat(member_mask, graph.row_lengths))
    take = take[member_mask[graph.indices[take]]]
    rows_local = local[graph.nnz_rows[take]]
    indptr = np.zeros(members.size + 1, dtype=INDEX_DTYPE)
    np.cumsum(np.bincount(rows_local, minlength=members.size), out=indptr[1:])
    sub = CSRMatrix(
        indptr=indptr,
        indices=local[graph.indices[take]],
        data=graph.data[take],
        shape=(int(members.size), int(members.size)),
    )
    return sub, local


# ---------------------------------------------------------------------------
# Localized rescan (cycle breaking + path ids/positions)
# ---------------------------------------------------------------------------


def _walk_component(neighbors: np.ndarray, start: int) -> tuple[list, bool]:
    """Vertices of ``start``'s component in walk order, and whether it is a
    cycle.  For a path the order runs end-to-end; for a cycle, once around
    from ``start``."""
    first = int(neighbors[start, 0])
    if first == NO_PARTNER:
        return [start], False
    order = [start]
    prev, cur = start, first
    while cur != start:
        order.append(cur)
        a, b = int(neighbors[cur, 0]), int(neighbors[cur, 1])
        nxt = b if a == prev else a
        if nxt == NO_PARTNER:
            break
        prev, cur = cur, nxt
    if cur == start:
        return order, True
    # reached an end; extend the other way from `start` to the far end
    back = []
    prev, cur = start, int(neighbors[start, 1])
    while cur != NO_PARTNER:
        back.append(cur)
        a, b = int(neighbors[cur, 0]), int(neighbors[cur, 1])
        cur, prev = (b if a == prev else a), cur
    back.reverse()
    return back + order, False


def _weakest_cycle_edge(order: list, graph: CSRMatrix) -> tuple[int, int, int]:
    """Index (in cycle order) and endpoints of the cycle's weakest edge —
    the lexicographic minimum of the :class:`~repro.core.scan.MinEdgeOperator`
    triple (|weight|, min endpoint id, max endpoint id)."""
    arr = np.asarray(order, dtype=INDEX_DTYPE)
    nxt = np.roll(arr, -1)
    w = np.abs(graph.gather(arr, nxt))
    lo = np.minimum(arr, nxt)
    hi = np.maximum(arr, nxt)
    best = int(np.lexsort((hi, lo, w))[0])
    return best, int(lo[best]), int(hi[best])


def _rescan_region(
    raw_factor: Factor,
    graph: CSRMatrix,
    region: np.ndarray,
    previous: LinearForestResult,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Recompute path ids/positions/cycles for the affected components.

    ``region`` is a boolean vertex mask closed under components of
    ``raw_factor`` (no factor edge leaves it).  Returns the new per-vertex
    ``path_id``/``position``/``cycle_mask`` arrays (previous values outside
    the region), the full removed-edge pair arrays, and the number of
    re-walked components.
    """
    neighbors = raw_factor.neighbors
    path_id = previous.paths.path_id.copy()
    position = previous.paths.position.copy()
    cycle_mask = previous.broken.cycle_mask.copy()

    # removed pairs of untouched cycles survive; affected ones are re-derived
    old_u, old_v = previous.broken.removed_u, previous.broken.removed_v
    kept = ~region[old_u] if old_u.size else np.empty(0, dtype=bool)
    pairs = list(zip(old_u[kept].tolist(), old_v[kept].tolist()))

    visited = ~region
    visited = visited.copy()
    n_components = 0
    for seed in np.flatnonzero(region):
        seed = int(seed)
        if visited[seed]:
            continue
        order, is_cycle = _walk_component(neighbors, seed)
        n_components += 1
        if is_cycle:
            cut, lo, hi = _weakest_cycle_edge(order, graph)
            pairs.append((lo, hi))
            # the path runs from one endpoint of the removed edge to the other
            order = order[cut + 1 :] + order[: cut + 1]
        arr = np.asarray(order, dtype=INDEX_DTYPE)
        visited[arr] = True
        cycle_mask[arr] = is_cycle
        if int(arr[0]) > int(arr[-1]):
            arr = arr[::-1]  # position 1 sits at the smaller end id
        path_id[arr] = arr[0]
        position[arr] = np.arange(1, arr.size + 1, dtype=INDEX_DTYPE)

    if pairs:
        pair_arr = np.unique(np.asarray(pairs, dtype=INDEX_DTYPE), axis=0)
        removed_u, removed_v = pair_arr[:, 0], pair_arr[:, 1]
    else:
        removed_u = np.empty(0, dtype=INDEX_DTYPE)
        removed_v = np.empty(0, dtype=INDEX_DTYPE)
    return path_id, position, cycle_mask, removed_u, removed_v, n_components


def _splice_bands(
    a: CSRMatrix,
    previous: LinearForestResult,
    paths: PathInfo,
    perm: np.ndarray,
    region: np.ndarray,
) -> TridiagonalSystem:
    """Band buffers of the edited system: untouched vertices copy their old
    band values to their new offsets, affected positions gather from the
    edited matrix — reproducing the scatter of
    :func:`~repro.core.extraction.extract_tridiagonal` exactly (band values
    are raw copies of matrix entries, so no floating-point arithmetic enters
    the splice)."""
    n = a.n_rows
    band_dtype = a.data.dtype
    dl = np.zeros(n, dtype=band_dtype)
    d = np.zeros(n, dtype=band_dtype)
    du = np.zeros(n, dtype=band_dtype)
    new_index = inverse_permutation(perm)

    reused = np.flatnonzero(~region)
    if reused.size:
        old_index = inverse_permutation(previous.perm)
        dl[new_index[reused]] = previous.tridiagonal.dl[old_index[reused]]
        d[new_index[reused]] = previous.tridiagonal.d[old_index[reused]]
        du[new_index[reused]] = previous.tridiagonal.du[old_index[reused]]

    fresh = np.flatnonzero(region)
    if fresh.size:
        pos = new_index[fresh]
        d[pos] = a.gather(fresh, fresh).astype(band_dtype)
        # sub/superdiagonal entries exist exactly between consecutive
        # positions of the same path (those pairs are the forest edges)
        has_prev = (pos > 0) & (
            paths.path_id[perm[np.maximum(pos - 1, 0)]] == paths.path_id[fresh]
        )
        sub = pos[has_prev]
        dl[sub] = a.gather(perm[sub], perm[sub - 1]).astype(band_dtype)
        has_next = (pos < n - 1) & (
            paths.path_id[perm[np.minimum(pos + 1, n - 1)]] == paths.path_id[fresh]
        )
        sup = pos[has_next]
        du[sup] = a.gather(perm[sup], perm[sup + 1]).astype(band_dtype)
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
    :func:`apply_edits` to chain updates.
    """

    result: LinearForestResult
    matrix: CSRMatrix
    stats: DeltaStats

    @property
    def coverage(self) -> float:
        return self.result.coverage


def _meter(kl: KernelLaunch, *, read: int = 0, written: int = 0) -> None:
    """Add raw byte counts to a launch handle (fused-kernel accounting)."""
    if kl.enabled:
        kl.bytes_read += int(read)
        kl.bytes_written += int(written)


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
        As in :func:`~repro.core.pipeline.extract_linear_forest`.
        ``devices > 1`` (or a :class:`~repro.device.device.DeviceGroup`)
        falls back to a full sharded re-run with a
        :class:`DeltaFallbackWarning` — the halo protocol has no incremental
        path yet.
    compaction:
        Frontier-compaction policy for the frontier-local recompute; results
        are bit-identical under every policy.
    max_region_fraction:
        When the invalidation ball covers more than this fraction of the
        vertices, the delta recompute stops paying for itself and the engine
        falls back to a full re-run (``stats.fallback == "region"``).

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
    metrics = current_metrics()

    if len(edits) == 0:
        if metrics is not None:
            metrics.counter("delta.runs").inc()
            metrics.counter("delta.empty_batches").inc()
        return DeltaResult(
            result=previous,
            matrix=a,
            stats=DeltaStats(
                n_edits=0, touched_vertices=0, region_vertices=0,
                core_vertices=0, changed_vertices=0, rescanned_vertices=0,
                affected_components=0, fused_launches=0,
                total_vertices=a.n_rows, fallback="empty",
            ),
        )

    a_new = apply_edits_to_matrix(a, edits)

    # device resolution mirrors extract_linear_forest: a group (or an
    # ambient/explicit device count > 1) means a sharded run — which the
    # delta engine cannot splice yet, so it degrades to a full re-run
    if isinstance(device, DeviceGroup):
        return _fallback(
            edits, a_new, config, "sharded", warn=True,
            device=device, devices=devices, compaction=compaction,
        )
    if devices is not None or device is None:
        from .sharded import resolve_devices

        devices = resolve_devices(devices)
    if devices is not None and devices > 1:
        if device is not None:
            raise ConfigError(
                "pass a DeviceGroup (or no device) together with devices=; "
                "a single Device cannot host a sharded run"
            )
        return _fallback(
            edits, a_new, config, "sharded", warn=True,
            devices=devices, compaction=compaction,
        )

    device = device or default_device()
    timings = TimingBreakdown()
    radius = invalidation_radius(config)

    with trace_span(
        "apply-edits",
        category="run",
        n_vertices=a.n_rows,
        n_edits=len(edits),
        radius=radius,
        dtype=str(a_new.data.dtype),
    ) as root:
        with timings.phase(PHASE_FACTOR):
            graph_new = prepare_graph(a_new)
            from .frontier import resolve_compaction

            policy = resolve_compaction(compaction, graph=graph_new)
            if root is not None:
                root.attributes["compaction"] = policy.name

            touched = edits.touched
            with trace_span("delta.frontier", category="stage") as span, device.launch(
                "delta.frontier", reads=(touched,)
            ) as kl:
                dist = _ball(graph_new, touched, 2 * radius + 1)
                members = np.flatnonzero(dist <= 2 * radius + 1)
                core = np.flatnonzero(dist <= radius)
                # the BFS streams the region's adjacency rows plus the
                # distance updates
                _meter(
                    kl,
                    read=int(graph_new.row_lengths[members].sum()) * 8
                    + members.size * 8,
                    written=members.size * 8,
                )
                if span is not None:
                    span.attributes.update(region=int(members.size), core=int(core.size))

            if members.size > max_region_fraction * a.n_rows:
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
                _meter(
                    kl,
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
                _meter(kl, read=n_rescanned * 16, written=n_rescanned * 17)
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
                _meter(
                    kl,
                    read=3 * (a.n_rows - n_rescanned) * item  # old band values
                    + n_rescanned * (3 * item + 16),  # fresh gathers
                    written=3 * a.n_rows * item,
                )

        cov = coverage_of(a_new, forest)
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

    factor_result = ParallelFactorResult(
        factor=raw_factor,
        iterations=sub_result.iterations,
        m_max=sub_result.m_max,
        converged=sub_result.converged,
        coverage_history=[],
        proposals_per_iteration=list(sub_result.proposals_per_iteration),
        frontier_history=list(sub_result.frontier_history),
        compaction_decisions=list(sub_result.compaction_decisions),
        gathered_elements=sub_result.gathered_elements,
    )
    result = LinearForestResult(
        graph=graph_new,
        factor_result=factor_result,
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
    prepared_graph: CSRMatrix | None = None,
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
