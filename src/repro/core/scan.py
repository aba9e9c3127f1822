"""The bidirectional scan — Algorithm 3 / Section 4.2 of the paper.

A [0,2]-factor is structured like a doubly-linked list *with unknown
orientation*: every vertex knows its (at most two) neighbours but not which
one is "forward".  Classical parallel scans (Thrust, CUB, parallel STL)
require random-access iterators and cannot run on such a structure.  The
bidirectional scan runs two pointer-jumping scans in both directions
simultaneously with a butterfly access pattern (Figure 2): each vertex keeps a
stride-q neighbour per direction and, per step, absorbs the payload of the
segment behind that neighbour, doubling q.  ``log₂(N)`` kernel launches
suffice even if all vertices lie on one path.

Encoding (Section 4.2): a lane that has reached a path end stores the
*negative 1-based id* of the end vertex, ``-(end + 1)``; a lane that is still
positive after the final step proves its vertex lies on a cycle.

Convergence awareness (deviation from the paper — the paper always runs the
full ⌈log₂N⌉ launches):

* **Early exit** — the paper itself notes the butterfly needs ⌈log₂N⌉ steps
  only if all vertices lie on one path.  On real factors most paths are
  short, so the engine stops launching as soon as every lane holds a
  path-end marker (``(q < 0).all()``); :attr:`ScanResult.launches` reports
  the launches actually executed against the nominal :attr:`ScanResult.steps`.
  Cycle lanes never clamp, so factors with cycles still run all steps and
  the cycle-detection semantics of the paper are untouched.
* **Frontier compaction** — clamped lanes are dead weight: their tuples
  never change again.  Instead of copying every ping-pong buffer in full
  each step, the engine keeps one live buffer per array, gathers what the
  *active* (vertex, lane) entries read into compacted snapshots, and
  scatters only the merged results back.  The gathered snapshot plays the
  role of the paper's input ("back") buffer: all reads of a step complete
  before any write, so the race the ping-pong buffers guard against cannot
  occur, while global-memory traffic shrinks with the frontier.  *When* the
  per-lane candidate lists are re-gathered is a pluggable
  :class:`~repro.core.frontier.CompactionPolicy` (``compaction=``): a lazy
  policy carries clamped candidates a few extra steps (each costs only its
  id and marker read before the in-kernel skip) instead of re-gathering the
  list every step.  Results are bit-identical either way — dead candidates
  are filtered out before the far-tuple gathers, so the launch computes on
  exactly the active set regardless of policy.
* **Single-gather step** — the step addresses the ``(N, 2)`` state through
  flat lane-major views, entry ``(v, lane)`` at ``2v + lane``.  Algorithm 3
  lines 15–20 inspect both entries of the far pair in order ``j = 0, 1``;
  every entry that is not ``v`` extends the segment, the second
  overwriting the first.  So each active entry gathers its far pointer and
  the far ``q`` pair, picks entry 1 if it is not ``v``, else entry 0, and
  gathers only that entry of each payload field; ⊕ runs once per launch.
  On a valid factor at most one entry extends.  Both extend only on an
  invalid one, e.g. asymmetric, whose rows gather entry 0 as well and apply
  the ``j = 0`` combine first.  The meter still charges the full far pair of
  ``q`` and of every payload field, and the ``j = 0`` traffic of such rows,
  so each kernel record is that of the two-entry formulation.  A field
  pair costs what its lanes carry: :class:`MinEdgeOperator` carries one
  int64 key, not the paper's (weight, id, id) triple, so a far tuple of the
  fused weakest-edge + position pass is 48 bytes (``q``, key, ``r``), not
  80.  The meter covers the step loop only.  An operator's ``init`` and
  ``finish`` run on the host and record nothing, and for the key that
  leaves out the sort that ranks the 2N lanes and the lookup that decodes
  them.  On a :class:`~repro.device.device.DeviceGroup` both steps span
  every shard, since keys must compare across a cycle that crosses shards,
  yet no launch, kernel bytes or ``halo.*`` transfer is recorded for them.
* **Telemetry** — every launch reports its frontier size to the
  :class:`~repro.device.device.Device` (``active_lanes``/``total_lanes``),
  so ``render_trace`` shows the convergence curve of a run.

Results are bit-identical to the exhaustive engine (kept as
:class:`~repro.core.ablations.ReferenceScan`): extra launches past
convergence are no-ops, and the gather/scatter step applies exactly the
combines of Algorithm 3 lines 15–20, in the same order.

The payload and its ⊕ are pluggable (the scan is "parameterized on the
operation" like ``thrust::inclusive_scan``): :class:`AddOperator` computes
path positions (step 2 of Section 3.3), :class:`MinEdgeOperator` finds the
weakest edge of each cycle (step 1), :class:`MaxVertexOperator` labels each
component (the pipeline's pass breaks its cycles from the labels, see
:mod:`repro.core.cycles`), and :class:`FusedOperator` runs several payloads
through one butterfly pass.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Mapping, Protocol, Sequence

import numpy as np

from .._validation import INDEX_DTYPE, VALUE_DTYPE
from ..device.device import Device, DeviceGroup, KernelLaunch, default_device
from ..errors import ScanError
from ..obs import trace_span
from ..sparse.csr import CSRMatrix
from .frontier import (
    CompactionDecision,
    CompactionPolicy,
    FrontierState,
    record_decision,
    resolve_compaction,
    wants_auto,
)
from .partition import Placement, VertexPartition, group_attrs
from .structures import NO_PARTNER, Factor

__all__ = [
    "AddOperator",
    "BidirectionalScan",
    "FusedOperator",
    "MaxVertexOperator",
    "MinEdgeOperator",
    "NullOperator",
    "ScanResult",
    "WeightedAddOperator",
    "decode_end",
    "is_path_end",
    "operator_label",
    "scan_steps",
]

Payload = dict[str, np.ndarray]

#: Bytes per candidate-list entry moved by a list re-gather (one int64 id).
CAND_GATHER_BYTES = 8
#: Bytes one retained dead candidate costs per step: its id and its clamped
#: ``q`` marker are streamed before the in-kernel skip (two int64 words).
CAND_DEAD_BYTES = 16


def is_path_end(q: np.ndarray) -> np.ndarray:
    """A lane value marks a path end iff it is negative."""
    return q < 0


def decode_end(q: np.ndarray) -> np.ndarray:
    """Recover the end-vertex id from a path-end marker ``-(end + 1)``."""
    return -q - 1


def scan_steps(n_vertices: int) -> int:
    """Number of kernel launches: ⌈log₂(N)⌉ (Section 4.2)."""
    if n_vertices <= 1:
        return 0
    return int(np.ceil(np.log2(n_vertices)))


class ScanOperator(Protocol):
    """The pluggable ⊕ of the bidirectional scan.

    ``init`` produces the per-lane payload arrays of shape ``(N, 2)``;
    ``combine`` merges the far segment's payload into the current one (both
    arguments are flat selections of lane entries) and must be vectorized and
    side-effect free.

    An operator may also define ``finish(payload) -> payload``, which maps
    the lane state of the last launch to the payload a
    :class:`ScanResult` hands out (e.g. :class:`MinEdgeOperator` decodes its
    keys into the weakest-edge triple).  Every engine applies it once,
    through :func:`finish_payload`, after its last launch.
    """

    def init(self, factor: Factor, graph: CSRMatrix | None) -> Payload: ...

    def combine(self, current: Payload, far: Payload) -> Payload: ...


def finish_payload(operator: ScanOperator, payload: Payload) -> Payload:
    """The payload a scan result hands out: ``operator.finish(payload)`` if
    the operator defines ``finish``, else ``payload`` itself."""
    finish = getattr(operator, "finish", None)
    return payload if finish is None else finish(payload)


def operator_label(operator: ScanOperator) -> str:
    """Short kernel-name tag for an operator (e.g. ``min-edge``).

    Operators may define a ``label`` attribute; the fallback derives a
    kebab-case slug from the class name (``MinEdgeOperator`` → ``min-edge``).
    """
    label = getattr(operator, "label", None)
    if label:
        return str(label)
    name = type(operator).__name__
    if name.endswith("Operator"):
        name = name[: -len("Operator")]
    out = []
    for i, ch in enumerate(name):
        if ch.isupper() and i > 0:
            out.append("-")
        out.append(ch.lower())
    return "".join(out) or "op"


class NullOperator:
    """No payload — used when only connectivity (cycle detection) matters."""

    label = "null"

    def init(self, factor: Factor, graph: CSRMatrix | None) -> Payload:
        return {}

    def combine(self, current: Payload, far: Payload) -> Payload:
        return {}


class AddOperator:
    """Path-position payload: each lane starts at 1 and sums over the path.

    After the scan, the lane pointing at end ``e`` holds
    ``dist(v, e) + 1`` — the 1-based position of ``v`` counted from ``e``
    (Algorithm 3 lines 2 and 17).
    """

    label = "add"

    def init(self, factor: Factor, graph: CSRMatrix | None) -> Payload:
        return {"r": np.ones((factor.n_vertices, 2), dtype=INDEX_DTYPE)}

    def combine(self, current: Payload, far: Payload) -> Payload:
        return {"r": current["r"] + far["r"]}


class WeightedAddOperator:
    """Weighted path positions: each lane accumulates the |weight| of the
    traversed edges instead of a unit step.

    Demonstrates the Thrust-style operator parameterization of the scan: the
    same butterfly computes, per vertex and direction, the total edge weight
    between the vertex and the path end.  (The lane pointing at end ``e``
    finally holds ``weight(v .. e) + 1`` — the ``+1`` mirrors the unit
    initialisation of Algorithm 3 so that path ends report 1.)
    """

    label = "weighted-add"

    def init(self, factor: Factor, graph: CSRMatrix | None) -> Payload:
        if graph is None:
            raise ScanError("WeightedAddOperator requires the weighted graph")
        n_vertices = factor.n_vertices
        ids = np.arange(n_vertices, dtype=INDEX_DTYPE)
        r = np.ones((n_vertices, 2), dtype=VALUE_DTYPE)
        for lane in (0, 1):
            if lane < factor.n:
                nbr = factor.neighbors[:, lane]
            else:
                nbr = np.full(n_vertices, NO_PARTNER, dtype=INDEX_DTYPE)
            valid = nbr != NO_PARTNER
            r[valid, lane] = np.abs(graph.gather(ids[valid], nbr[valid]))
        return {"r": r}

    def combine(self, current: Payload, far: Payload) -> Payload:
        return {"r": current["r"] + far["r"]}


class MaxVertexOperator:
    """Broadcast the maximum vertex id of the component to every member.

    The paper notes the scan can "find and broadcast a specific value" —
    this is that use: an idempotent maximum, valid on paths *and* cycles.
    A lane holds the maximum over the segment it covered, so a vertex reads
    its component's maximum over both of its lanes: on a cycle whose length
    is a power of two each lane stalls at half the cycle.  The pipeline's
    pass (:func:`~repro.core.cycles.labelled_pass`) carries it as the cycle
    label.
    """

    label = "max-vertex"

    def init(self, factor: Factor, graph: CSRMatrix | None) -> Payload:
        n_vertices = factor.n_vertices
        ids = np.arange(n_vertices, dtype=INDEX_DTYPE)
        m = np.empty((n_vertices, 2), dtype=INDEX_DTYPE)
        for lane in (0, 1):
            if lane < factor.n:
                nbr = factor.neighbors[:, lane]
            else:
                nbr = np.full(n_vertices, NO_PARTNER, dtype=INDEX_DTYPE)
            m[:, lane] = np.where(nbr == NO_PARTNER, ids, np.maximum(ids, nbr))
        return {"m": m}

    def combine(self, current: Payload, far: Payload) -> Payload:
        return {"m": np.maximum(current["m"], far["m"])}


def _sort_pairs(w: np.ndarray, uv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Order the pairs ``(w[i], uv[i])`` lexicographically.

    Returns the order and, along it, a mask that is True where a pair
    differs from its predecessor, so ``cumsum(mask) - 1`` is each sorted
    pair's dense rank.  It always argsorts ``w``, which is the whole job
    when every weight names a single ``uv``; when two distinct ``uv`` share
    a weight it then runs ``np.lexsort`` on both keys, so such inputs pay
    for both sorts.  A lexsort alone would be simpler, but on the
    65,536-vertex perfbench inputs it made ``MinEdgeOperator.init`` about
    twice as slow on g3_circuit (about 30 ms against 16 ms), and saved only
    1–2 ms where weights repeat (aniso2, ecology1).
    """
    order = np.argsort(w)
    new = np.ones(w.size, dtype=bool)
    ws = w[order]
    np.not_equal(ws[1:], ws[:-1], out=new[1:])
    uvs = uv[order]
    if ((uvs[1:] != uvs[:-1]) > new[1:]).any():
        order = np.lexsort((uv, w))
        ws, uvs = w[order], uv[order]
        new[1:] = (ws[1:] != ws[:-1]) | (uvs[1:] != uvs[:-1])
    return order, new


def edge_weights(graph: CSRMatrix, here: np.ndarray, there: np.ndarray) -> np.ndarray:
    """The |weight| of each edge ``here[i]``–``there[i]``: the smaller of its
    two directions in ``graph``, so both lanes of an edge weigh it alike."""
    return np.minimum(np.abs(graph.gather(here, there)), np.abs(graph.gather(there, here)))


class MinEdgeOperator:
    """Weakest-edge payload for cycle breaking (Section 3.3 step 1).

    Each lane starts with the incident factor edge in its direction,
    identified by the triple (|weight| of its lighter direction, min endpoint,
    max endpoint; :func:`edge_weights`) — *"the weakest edge is uniquely
    identified by the weight and the IDs of the incident vertices"*.  ⊕ is
    the lexicographic minimum, which is idempotent, so the overlapping
    segment coverage that pointer jumping produces on cycles is harmless.

    Between launches a lane carries one int64 ``key`` instead of the triple:
    :meth:`init` dense-ranks the lane triples, so key order is exactly the
    triple order, equal triples share a key and a missing lane ranks after
    every edge, +inf ones included.  ⊕ is then one ``np.minimum``.
    :meth:`finish` maps the keys back to the triple arrays ``w`` (float64),
    ``u`` and ``v`` (int64) once, after the last launch; a missing lane
    reads (+inf, int64 max, int64 max).  It decodes the keys of this
    operator's latest :meth:`init`, so a scan in flight needs an operator of
    its own.  A NaN weight has no rank and is refused.  The rank and the
    decode are unmetered host steps (see the module docstring), so the
    metered bytes of a key scan count its launches, not the sort of the 2N
    lanes.  The paper's triple ⊕ is kept as
    :class:`~repro.core.ablations.TripleMinEdgeOperator`, the oracle of the
    key.
    """

    label = "min-edge"

    _INF = np.iinfo(INDEX_DTYPE).max

    def __init__(self):
        # (w, u, v) of each distinct lane triple, indexed by key
        self._triples: tuple[np.ndarray, ...] = ()

    def init(self, factor: Factor, graph: CSRMatrix | None) -> Payload:
        if graph is None:
            raise ScanError("MinEdgeOperator requires the weighted graph")
        n_vertices = factor.n_vertices
        # flat lane-major partners: entry (x, lane) at 2x + lane
        nbr = np.full((n_vertices, 2), NO_PARTNER, dtype=INDEX_DTYPE)
        lanes = factor.neighbors[:, :2]
        nbr[:, : lanes.shape[1]] = lanes
        nbr = nbr.reshape(-1)
        edge_lanes = np.flatnonzero(nbr != NO_PARTNER)
        here = edge_lanes >> 1
        there = nbr[edge_lanes]
        w = edge_weights(graph, here, there)
        nan = np.flatnonzero(np.isnan(w))
        if nan.size:
            raise ScanError(
                f"factor edge ({here[nan[0]]}, {there[nan[0]]}) has a NaN weight, "
                "which has no rank"
            )
        u = np.minimum(here, there)
        v = np.maximum(here, there)
        order, new = _sort_pairs(w, u * n_vertices + v)
        holders = order[new]
        # a missing lane's key is one past every edge's
        key = np.full(2 * n_vertices, holders.size, dtype=INDEX_DTYPE)
        key[edge_lanes[order]] = np.cumsum(new) - 1
        self._triples = (
            np.append(w[holders], np.inf),
            np.append(u[holders], self._INF),
            np.append(v[holders], self._INF),
        )
        return {"key": key.reshape(n_vertices, 2)}

    def combine(self, current: Payload, far: Payload) -> Payload:
        return {"key": np.minimum(current["key"], far["key"])}

    def finish(self, payload: Payload) -> Payload:
        key = payload["key"]
        return {name: table[key] for name, table in zip("wuv", self._triples)}


class FusedOperator:
    """Run several operators' payloads through one butterfly pass.

    ``FusedOperator((MinEdgeOperator(), AddOperator()))`` carries both the
    weakest-edge triple and the position accumulator per lane, halving the
    number of scans when a caller needs both results of the *same* factor.
    The stride-q pointers are shared; each constituent's ``combine`` sees
    exactly the selections it would see in a solo run, so every fused payload
    is bit-identical to its separate-scan counterpart.

    Payload names must be disjoint across the constituents; pass ``prefixes``
    to namespace them when they collide (e.g. two :class:`AddOperator`\\ s).
    """

    def __init__(
        self,
        operators: Sequence[ScanOperator],
        prefixes: Sequence[str] | None = None,
    ):
        operators = tuple(operators)
        if not operators:
            raise ScanError("FusedOperator requires at least one operator")
        if prefixes is None:
            prefixes = ("",) * len(operators)
        else:
            prefixes = tuple(prefixes)
            if len(prefixes) != len(operators):
                raise ScanError(
                    f"got {len(prefixes)} prefixes for {len(operators)} operators"
                )
        self.operators = operators
        self.prefixes = prefixes
        # per operator: the payload base names, filled in by init()
        self._fields: list[tuple[str, ...]] = []

    @property
    def label(self) -> str:
        return "fused(" + "+".join(operator_label(op) for op in self.operators) + ")"

    @staticmethod
    def _put(out: Payload, prefix: str, payload: Payload) -> None:
        for base, arr in payload.items():
            name = prefix + base
            if name in out:
                raise ScanError(
                    f"fused payload name collision on {name!r}; "
                    "disambiguate with prefixes"
                )
            out[name] = arr

    def init(self, factor: Factor, graph: CSRMatrix | None) -> Payload:
        out: Payload = {}
        self._fields = []
        for op, prefix in zip(self.operators, self.prefixes):
            payload = op.init(factor, graph)
            self._fields.append(tuple(payload))
            self._put(out, prefix, payload)
        return out

    def combine(self, current: Payload, far: Payload) -> Payload:
        out: Payload = {}
        for op, prefix, names in zip(self.operators, self.prefixes, self._fields):
            if not names:
                continue
            merged = op.combine(
                {base: current[prefix + base] for base in names},
                {base: far[prefix + base] for base in names},
            )
            for base in names:
                out[prefix + base] = merged[base]
        return out

    def finish(self, payload: Payload) -> Payload:
        """Forward each constituent's lanes through its own ``finish``."""
        out: Payload = {}
        for op, prefix, names in zip(self.operators, self.prefixes, self._fields):
            lanes = {base: payload[prefix + base] for base in names}
            self._put(out, prefix, finish_payload(op, lanes))
        return out


@dataclass(frozen=True)
class ScanResult:
    """Final lane state of a bidirectional scan.

    ``steps`` is the nominal (clamped) step count of the run; ``launches``
    counts the kernel launches actually executed — smaller when the scan
    converged early.  ``active_per_launch`` holds the frontier size (number
    of unconverged lanes) at each executed launch.
    ``compaction_decisions`` are the per-step candidate-list verdicts of the
    engine's compaction policy (empty for engines without one, e.g. the
    reference ablations, and on steps where no candidate had died).
    """

    q: np.ndarray  # (N, 2) — markers -(end+1), or positive ids on cycles
    payload: Mapping[str, np.ndarray]  # each (N, 2)
    steps: int
    launches: int
    active_per_launch: tuple[int, ...] = field(default=())
    compaction_decisions: tuple[CompactionDecision, ...] = field(default=())

    @property
    def cycle_mask(self) -> np.ndarray:
        """Vertices whose lanes never reached a path end lie on a cycle."""
        # one lane column at a time: a reduction along the short lane axis
        # costs about ten times as much
        return (self.q[:, 0] >= 0) | (self.q[:, 1] >= 0)

    @property
    def converged(self) -> bool:
        """True iff every lane clamped to a path-end marker."""
        return bool((self.q < 0).all())


class BidirectionalScan:
    """Runs Algorithm 3's butterfly pointer jumping on a [0,≤2]-factor.

    This is the convergence-aware engine (early exit + frontier compaction,
    see the module docstring); the paper's exhaustive formulation survives as
    :class:`~repro.core.ablations.ReferenceScan` and the two are
    property-tested to produce bit-identical results.

    A :class:`~repro.device.device.DeviceGroup` as ``device`` shards the
    lanes by vertex over ``partition`` (default: uniform over the group).
    Each step is then one *synchronized halo-exchange round*: every active
    shard's launch opens at once, all shards gather their active lanes' far
    tuples — pulling tuples owned by other shards over the interconnect
    (``halo.scan``) — and only then does any shard scatter.  All reads of a
    step complete before any write, the ping-pong discipline of one device,
    so after every step each lane holds exactly the single-device state.
    Candidate lists and compaction verdicts are per shard; a shard whose
    lanes have all clamped stops launching while its peers keep jumping.
    """

    def __init__(
        self,
        factor: Factor,
        *,
        device: Device | DeviceGroup | None = None,
        compaction: CompactionPolicy | str | None = None,
        partition: VertexPartition | None = None,
    ):
        if factor.n > 2:
            raise ScanError(
                f"the bidirectional scan requires a [0,2]-factor, got n={factor.n}"
            )
        self.factor = factor
        self.device = device or default_device()
        self._placement = Placement(self.device, factor.n_vertices, partition)
        self._compaction = compaction
        # "auto" fingerprints the graph, which only run() receives — defer it
        self.policy = None if wants_auto(compaction) else resolve_compaction(compaction)
        n_vertices = factor.n_vertices
        ids = np.arange(n_vertices, dtype=INDEX_DTYPE)
        q0 = np.full((n_vertices, 2), 0, dtype=INDEX_DTYPE)
        for lane in (0, 1):
            if lane < factor.n:
                nbr = factor.neighbors[:, lane]
            else:
                nbr = np.full(n_vertices, NO_PARTNER, dtype=INDEX_DTYPE)
            # missing neighbours mark this very vertex as the path end
            q0[:, lane] = np.where(nbr == NO_PARTNER, -(ids + 1), nbr)
        self._q0 = q0
        self._ids = ids

    def run(
        self,
        operator: ScanOperator,
        graph: CSRMatrix | None = None,
        *,
        steps: int | None = None,
    ) -> ScanResult:
        """Execute the scan with the given ⊕ operator.

        ``steps`` defaults to ⌈log₂(N)⌉ — enough for a single path spanning
        all vertices; pass a smaller value only for illustration (e.g. the
        Figure 2 trace).  Values above ⌈log₂(N)⌉ are clamped: the extra
        launches could only ever be no-ops.  The scan additionally stops as
        soon as every lane has clamped to a path-end marker, so
        ``result.launches ≤ result.steps``.
        """
        if self.policy is None:
            self.policy = resolve_compaction(self._compaction, graph=graph)
        nominal = scan_steps(self.factor.n_vertices)
        n_steps = nominal if steps is None else max(0, min(int(steps), nominal))
        # Live state: one buffer per array.  The per-step gathers below
        # snapshot everything a launch reads before it writes, which is the
        # compacted equivalent of the paper's ping-pong back buffer.
        q = self._q0.copy()
        # C order: the step loop updates flat views of these copies
        payload = {
            name: np.array(arr, copy=True, order="C")
            for name, arr in operator.init(self.factor, graph).items()
        }
        cand = {
            s: np.arange(2 * lo, 2 * hi, dtype=INDEX_DTYPE)
            for s, _, lo, hi in self._placement.shards
        }
        return self._scan(operator, q, payload, n_steps, cand)

    def run_from(
        self,
        operator: ScanOperator,
        prior: ScanResult,
        vertices: np.ndarray,
    ) -> ScanResult:
        """Re-scan only ``vertices``, starting every other lane from ``prior``.

        The lanes of ``vertices`` restart from this scan's factor — its
        initial pointers and ``operator.init`` — and are the only candidates
        of the step loop, one candidate list per shard.  Every other lane
        keeps ``prior.q`` and the ``prior.payload`` fields that ``operator``
        initialises, and never jumps.  No graph is passed, so an operator
        that reads edge weights refuses to restart.

        A lane's pointer jumping reads only lanes of its own component.  So
        when ``vertices`` is a union of whole components of this factor and
        every other lane of ``prior`` is final for a factor whose other
        components equal this one's, the result equals :meth:`run` bit for
        bit, with launches and bytes spent on ``vertices`` alone.
        """
        if self.policy is None:
            self.policy = resolve_compaction(self._compaction)
        n_vertices = self.factor.n_vertices
        if prior.q.shape != (n_vertices, 2):
            raise ScanError(
                f"prior scan has lane state {prior.q.shape}, "
                f"this factor needs {(n_vertices, 2)}"
            )
        vertices = np.unique(np.asarray(vertices, dtype=INDEX_DTYPE))
        if vertices.size and (vertices[0] < 0 or vertices[-1] >= n_vertices):
            raise ScanError(f"restarted vertices must lie in [0, {n_vertices})")
        q = np.array(prior.q, dtype=INDEX_DTYPE, order="C")
        q[vertices] = self._q0[vertices]
        payload = {}
        for name, fresh in operator.init(self.factor, None).items():
            if name not in prior.payload:
                raise ScanError(f"prior scan payload lacks the field {name!r}")
            lanes = np.array(prior.payload[name], dtype=fresh.dtype, order="C")
            lanes[vertices] = fresh[vertices]
            payload[name] = lanes
        # a restarted vertex's two lanes sit at 2v and 2v + 1
        cand = {}
        for s, _, lo, hi in self._placement.shards:
            first, last = np.searchsorted(vertices, (lo, hi))
            cand[s] = (2 * vertices[first:last, None] + np.arange(2)).reshape(-1)
        return self._scan(operator, q, payload, scan_steps(n_vertices), cand)

    def _scan(
        self,
        operator: ScanOperator,
        q: np.ndarray,
        payload: Payload,
        n_steps: int,
        cand: dict[int, np.ndarray],
    ) -> ScanResult:
        """Run the step loop on the given live state inside the stage span."""
        label = operator_label(operator)
        names = tuple(payload)
        with trace_span(
            "bidirectional-scan",
            category="stage",
            operator=label,
            steps=n_steps,
            total_lanes=2 * self.factor.n_vertices,
            compaction=self.policy.name,
            **group_attrs(self.device),
        ) as stage:
            launches, active_history, decisions = self._run_steps(
                operator, q, payload, names, n_steps, label, cand
            )
            payload = finish_payload(operator, payload)
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

    def _run_steps(
        self,
        operator: ScanOperator,
        q: np.ndarray,
        payload: Payload,
        names: tuple[str, ...],
        n_steps: int,
        label: str,
        cand: dict[int, np.ndarray],
    ) -> tuple[int, list[int], list[CompactionDecision]]:
        """The butterfly step loop; mutates ``q``/``payload`` in place.

        The loop works on flat lane-major views of the C-ordered ``(N, 2)``
        state: entry ``(v, lane)`` sits at ``2v + lane``, so the far
        vertex ``f``'s pair is ``2f``/``2f + 1``.

        ``cand`` holds the per-shard candidate lists of flat entries:
        supersets of the active (unclamped) entries that may move.  The
        compaction policy decides when a list is re-gathered down to exactly
        the active set; until then dead candidates ride along and are
        skipped in-kernel (their id + marker reads are the accounted
        dead-lane traffic the adaptive policy trades off).
        """
        placement = self._placement
        qf = q.reshape(-1)
        pf = {name: payload[name].reshape(-1) for name in names}
        launches = 0
        active_history: list[int] = []
        decisions: list[CompactionDecision] = []
        # one far tuple: the q pair plus every payload field pair
        tuple_bytes = 2 * q.dtype.itemsize + sum(
            2 * payload[name].dtype.itemsize for name in names
        )

        for step in range(n_steps):
            # Host-side convergence check (a device-side reduction + copy of
            # one word in CUDA terms): lanes holding markers never change.
            work = []
            for s, dev, lo, hi in placement.shards:
                idx = cand[s][qf[cand[s]] >= 0]
                if idx.size:  # a converged shard stops launching
                    work.append((s, dev, lo, hi, idx))
            if not work:
                break  # every lane is a path end — the scan has converged

            with ExitStack() as stack:
                launched = []
                for s, dev, lo, hi, idx in work:
                    n_active = int(idx.size)
                    n_dead = int(cand[s].size) - n_active
                    decision = None
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
                            cand[s] = idx
                    active_history.append(n_active)
                    kl = stack.enter_context(
                        dev.launch(
                            f"bidirectional-scan[{label}|step={step}]",
                            active_lanes=n_active,
                            total_lanes=2 * (hi - lo),
                        )
                    )
                    if decision is not None:
                        record_decision(decision, engine="scan", launch=kl)
                        if not decision.compact:
                            # dead candidates are streamed and skipped in-kernel
                            kl.meter(read=n_dead * CAND_DEAD_BYTES)
                    launched.append((s, kl, idx))
                    launches += 1

                # Gather phase, across all shards, completing every read of
                # the step before any write — the role of the ping-pong back
                # buffer.  The sequential j-loop leaves each lane on entry 1
                # of the far pair when it is not ``v``, else on entry 0, so
                # only that entry's payload is gathered; rows where both
                # entries extend (invalid factors only) gather entry 0 as
                # well, for the j = 0 combine.
                gathered = []
                for s, kl, idx in launched:
                    v = idx >> 1
                    far = qf[idx]
                    base = 2 * far
                    far0 = qf[base]
                    far1 = qf[base + 1]
                    ext0 = far0 != v
                    ext1 = far1 != v
                    new_q = np.where(ext1, far1, far0)
                    src = base + ext1
                    fire = ext0 | ext1
                    both = ext0 & ext1
                    sub = idx
                    if not fire.all():
                        sub, src, new_q = idx[fire], src[fire], new_q[fire]
                    first = None
                    if both.any():
                        first = (idx[both], {name: pf[name][base[both]] for name in names})
                    far_p = {name: pf[name][src] for name in names}
                    # the meter charges the whole far pair of q and of every
                    # payload field, as a kernel that loads both entries would
                    kl.reads(idx, far)
                    kl.meter(read=idx.size * tuple_bytes)
                    # one halo exchange per lane, deduplicating its own ids
                    for lane in (0, 1):
                        placement.halo(
                            s, lambda lane=lane: far[(idx & 1) == lane],
                            tuple_bytes, "halo.scan",
                        )
                    gathered.append((kl, first, sub, far_p, new_q))

                # Scatter phase: each entry writes only itself, and every
                # shard only its own rows, so no write aliases a gather.
                for kl, first, sub, far_p, new_q in gathered:
                    if first is not None:
                        rows, far_p0 = first
                        self._combine(kl, operator, pf, rows, far_p0)
                        # the j = 0 pointer write, overwritten by j = 1 below
                        kl.meter(written=rows.size * q.dtype.itemsize)
                    if sub.size:
                        self._combine(kl, operator, pf, sub, far_p)
                        qf[sub] = new_q
                        kl.writes(new_q)

        return launches, active_history, decisions

    @staticmethod
    def _combine(
        kl: KernelLaunch,
        operator: ScanOperator,
        pf: Payload,
        rows: np.ndarray,
        far: Payload,
    ) -> None:
        """Merge the gathered far payload into the flat entries ``rows`` of
        the payload views ``pf``."""
        current = {name: arr[rows] for name, arr in pf.items()}
        kl.reads(*current.values())
        merged = operator.combine(current, far)
        for name, arr in pf.items():
            arr[rows] = merged[name]
            kl.writes(merged[name])
